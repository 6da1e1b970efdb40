"""Tests for benchmark workloads, metrics and reporting."""

from __future__ import annotations

import pytest

from repro.bench.metrics import AvailabilityProbe, LatencyRecorder
from repro.bench.report import ExperimentReport, format_cell, format_table
from repro.bench.workloads import (
    KeyChooser,
    MixChooser,
    open_loop_arrivals,
    shuffled_within_window,
)
from repro.sim.rng import SeededRNG


class TestLatencyRecorder:
    def test_percentiles(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record(float(value))
        assert recorder.p50 == 50.0
        assert recorder.p99 == 99.0
        assert recorder.percentile(100) == 100.0
        assert recorder.maximum == 100.0

    def test_empty_recorder_is_zeroes(self):
        recorder = LatencyRecorder()
        assert recorder.mean == 0.0
        assert recorder.p99 == 0.0

    def test_invalid_percentile(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        with pytest.raises(ValueError):
            recorder.percentile(101)

    def test_summary_keys(self):
        recorder = LatencyRecorder()
        recorder.record(2.0)
        assert set(recorder.summary()) == {
            "count", "mean", "p50", "p95", "p99", "max"
        }


class TestProbesAndWindows:
    def test_availability_probe_windows(self):
        probe = AvailabilityProbe()
        probe.record(True)
        probe.record(False, during_failure=True)
        probe.record(True, during_failure=True)
        assert probe.availability == 2 / 3
        assert probe.availability_during_failure == 0.5

    def test_availability_vacuous_truths(self):
        probe = AvailabilityProbe()
        assert probe.availability == 1.0
        assert probe.availability_during_failure == 1.0


class TestWorkloads:
    def test_key_chooser_respects_population(self):
        chooser = KeyChooser(SeededRNG(1), ["a", "b", "c"], theta=0.5)
        assert {chooser.choose() for _ in range(100)} <= {"a", "b", "c"}

    def test_mix_chooser_ratios(self):
        mix = MixChooser(SeededRNG(2), {"read": 0.8, "write": 0.2})
        draws = [mix.choose() for _ in range(2000)]
        read_fraction = draws.count("read") / len(draws)
        assert 0.72 < read_fraction < 0.88

    def test_mix_chooser_validates(self):
        with pytest.raises(ValueError):
            MixChooser(SeededRNG(1), {})
        with pytest.raises(ValueError):
            MixChooser(SeededRNG(1), {"a": 0.0})

    def test_open_loop_arrivals_sorted_with_kinds(self):
        arrivals = open_loop_arrivals(
            SeededRNG(3), rate=2.0, duration=50.0,
            keys=["k1", "k2"], theta=0.9, kinds={"r": 1, "w": 1},
        )
        times = [arrival.at for arrival in arrivals]
        assert times == sorted(times)
        assert {arrival.kind for arrival in arrivals} <= {"r", "w"}

    def test_shuffle_window_one_is_identity(self):
        items = list(range(20))
        assert shuffled_within_window(SeededRNG(1), items, 1) == items

    def test_shuffle_window_bounds_displacement(self):
        items = list(range(100))
        shuffled = shuffled_within_window(SeededRNG(4), items, 10)
        assert sorted(shuffled) == items
        for position, value in enumerate(shuffled):
            assert abs(position - value) < 10

    def test_shuffle_window_validates(self):
        with pytest.raises(ValueError):
            shuffled_within_window(SeededRNG(1), [1], 0)


class TestReport:
    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(1.23456) == "1.23"
        assert format_cell(12345.0) == "12,345"
        assert format_cell("text") == "text"
        assert format_cell(float("inf")) == "inf"

    def test_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_experiment_report_render(self):
        report = ExperimentReport("E1", "Availability", "eventual wins", ["x", "y"])
        report.add_row(1, 2)
        rendered = report.render()
        assert "== E1: Availability ==" in rendered
        assert "claim: eventual wins" in rendered

    def test_report_notes_included(self):
        report = ExperimentReport("E1", "t", "c", ["x"], notes="shape holds")
        report.add_row(1)
        assert "reading: shape holds" in report.render()
