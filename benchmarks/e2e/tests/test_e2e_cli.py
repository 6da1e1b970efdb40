"""The command line and the BENCHMARK.json contract."""

import json
import pathlib
import re

import pytest

import run
from measure import END_TO_END_UNITS, layer_unit, measure
from workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[3]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_unknown_workload_is_rejected_listing_the_four(capsys):
    with pytest.raises(SystemExit) as raised:
        run.main(["--workload", "nope"])
    assert raised.value.code == 2
    message = capsys.readouterr().err
    for name in WORKLOADS:
        assert name in message


def test_benchmark_json_meets_the_schema():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    runs = 4 + 22 * len(BENCHMARK["workloads"])
    # A run overshoots its budget by at most half a round plus start-up.
    assert runs * (BENCHMARK["run_seconds"] + 5) < 3420


def test_emitted_metrics_are_exactly_the_declared_ones():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == END_TO_END_UNITS

    report = measure("geo_2of3", seed=5, seconds=0.0, traced=True, smoke=True)
    assert report["failed"] == 0, report["failures"]
    untraced = json.loads(run.contract_line(report, traced=False))
    traced = json.loads(run.contract_line(report, traced=True))
    for line in (untraced, traced):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == declared
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == layers
    assert all(layer_unit(name) == unit for name, unit in layers.items())


def test_compare_reports_each_workload_metric_with_its_base():
    import compare

    def entry(ops, spread, ship):
        return {
            "summary": {"ops_per_s": {"n": 5, "median": ops, "spread": spread}},
            "per_layer": {"ship.self_s": ship, "fold.self_s": 0.5, "ship.rounds": 30},
        }

    rows = compare.compare_workload(
        "ms_ingest", entry(1000.0, 0.02, 1.0), entry(1300.0, 0.03, 0.4), BENCHMARK
    )
    assert [row["metric"] for row in rows] == ["ops_per_s"]   # only what both measured
    assert rows[0]["ratio"] == pytest.approx(1.3) and rows[0]["verdict"] == "improved"
    noisy = compare.compare_workload(
        "ms_ingest", entry(1000.0, 0.02, 1.0), entry(1300.0, 0.30, 0.4), BENCHMARK
    )
    assert noisy[0]["verdict"] == "unresolved"
    deltas = compare.layer_deltas(entry(1, 0, 1.0), entry(1, 0, 0.4))
    assert deltas == [("ship.self_s", 1.0, 0.4), ("fold.self_s", 0.5, 0.5)]  # times only
