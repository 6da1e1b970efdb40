"""The paired-comparison summarizer (``benchmarks/paired.py``) on canned
contract lines: medians, quartiles, ratios, win counts in each metric's
direction, ties for neither side, and failed runs and operations."""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))

import paired  # noqa: E402

BETTER = {"read_p50_us": "lower", "ops_per_s": "higher"}


def line(read_p50_us, ops_per_s, failed=0, attempted=100):
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "read_p50_us": {"value": read_p50_us, "unit": "us"},
                "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            },
        }
    )


def run_output(*lines: str) -> str:
    return "\n".join(["== ms_hot  seed=7", "ms_hot  read_p50_us  17.1 us", *lines])


def test_contract_is_the_last_json_line():
    out = run_output(line(9.0, 1.0), line(8.0, 2.0))
    assert paired.contract(out)["metrics"]["read_p50_us"]["value"] == 8.0
    assert paired.contract("Traceback (most recent call last):\nboom") is None


def test_medians_quartiles_ratio_and_wins():
    pairs = [
        (json.loads(line(a, 100.0 + i)), json.loads(line(b, 100.0)))
        for i, (a, b) in enumerate([(20.0, 10.0), (18.0, 9.0), (19.0, 19.0), (17.0, 8.0), (16.0, 8.0)])
    ]
    summary = paired.summarize(pairs, BETTER)
    read, ops = summary["metrics"]
    assert read["metric"] == "read_p50_us"
    assert read["a"] == (17.0, 18.0, 19.0)
    assert read["b"] == (8.0, 9.0, 10.0)
    assert read["ratio"] == pytest.approx(0.5)
    # The tied pair (19 vs 19) counts for neither side.
    assert (read["wins"], read["compared"]) == (4, 5)
    # Higher is better for throughput: B's 100 never beats A's 100..104,
    # and the one tie (pair 0) is not a win.
    assert (ops["wins"], ops["compared"]) == (0, 5)
    assert ops["ratio"] == pytest.approx(100.0 / 102.0)
    assert summary["failed"] == [
        {"runs": 0, "ops": 0, "attempted": 500},
        {"runs": 0, "ops": 0, "attempted": 500},
    ]


def test_failed_runs_and_operations_are_counted_per_side():
    pairs = [
        (json.loads(line(10.0, 5.0)), None),
        (json.loads(line(10.0, 5.0)), json.loads(line(9.0, 6.0, failed=3))),
    ]
    summary = paired.summarize(pairs, BETTER)
    read = summary["metrics"][0]
    # The pair without a B result is compared by nobody.
    assert (read["wins"], read["compared"]) == (1, 1)
    assert read["b"] == (9.0, 9.0, 9.0)
    assert summary["failed"][0] == {"runs": 0, "ops": 0, "attempted": 200}
    assert summary["failed"][1] == {"runs": 2, "ops": 3, "attempted": 100}
    text = paired.format_summary(summary, "A", "B")
    assert "read_p50_us" in text and "1/1" in text
    assert "failed B: 2 of 2 runs, 3 of 100 operations" in text
