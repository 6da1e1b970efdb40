"""Schedules and read-level assignment come from the seed alone."""

import json
import pathlib

from workloads import EVENTUAL, STRONG, WORKLOADS, compile_schedule

ROOT = pathlib.Path(__file__).resolve().parents[3]


def test_same_seed_same_schedule_and_read_levels():
    for workload in WORKLOADS.values():
        first = compile_schedule(workload, seed=7, scale=0.01)
        again = compile_schedule(workload, seed=7, scale=0.01)
        assert first == again   # times, keys and read levels alike
        assert len(first) > 1000


def test_different_seed_different_schedule():
    workload = WORKLOADS["ms_mild"]
    one = compile_schedule(workload, seed=7, scale=0.01)
    other = compile_schedule(workload, seed=8, scale=0.01)
    assert one.at != other.at
    assert one.key != other.key
    assert one.request != other.request   # read levels


def test_mixes_follow_the_declared_shares():
    schedule = compile_schedule(WORKLOADS["ms_mild"], seed=3, scale=0.05)
    reads = [request for request in schedule.request if request is not None]
    assert abs(1 - len(reads) / len(schedule) - 0.4) < 0.02
    assert abs(reads.count(STRONG) / len(reads) - 0.2) < 0.02
    assert abs(reads.count(EVENTUAL) / len(reads) - 0.1) < 0.02
    ingest = compile_schedule(WORKLOADS["ms_ingest"], seed=3, scale=0.05)
    assert abs(ingest.request.count(None) / len(ingest) - 0.9) < 0.02


def test_benchmark_json_names_the_four_workloads():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert list(WORKLOADS) == ["ms_hot", "ms_mild", "ms_ingest", "geo_2of3"]
