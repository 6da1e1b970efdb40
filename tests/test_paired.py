"""The paired-comparison tool (``benchmarks/paired.py``) on canned
contract lines: medians, quartiles, ratios, win counts in each metric's
direction, ties for neither side, failed runs and operations, and the
one line each run prints before the table."""

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


def test_every_run_prints_its_own_line_before_the_table(monkeypatch, capsys):
    """``main`` with git and the ladder stubbed: one line per run, in run
    order, naming the pair, the side, whether it ran first or second and
    every end-to-end metric; a run without a contract line says so."""
    results = iter(
        [
            line(10.0, 5.0),  # pair 1: A first
            line(8.0, 6.0),  # pair 1: B second
            line(7.5, 6.5),  # pair 2: B first
            None,  # pair 2: A second printed no contract line
        ]
    )
    ran = []

    def run(checkout, workload, seed):
        ran.append((checkout.name, workload, seed))
        text = next(results)
        return None if text is None else json.loads(text)

    monkeypatch.setattr(paired, "_git", lambda *args: args[-1])
    monkeypatch.setattr(paired, "_run", run)
    assert paired.main(["base", "change", "--workload", "ms_hot", "--seed", "3", "--pairs", "2"]) == 0

    assert ran == [("a", "ms_hot", 3), ("b", "ms_hot", 3), ("b", "ms_hot", 3), ("a", "ms_hot", 3)]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ms_hot seed=3 pairs=2 A=base B=change"
    runs = out[1:5]
    metrics = [spec["name"] for spec in json.loads(
        (paired.ROOT / "BENCHMARK.json").read_text()
    )["end_to_end"]]
    for text, prefix in zip(
        runs, ["pair 1 A first", "pair 1 B second", "pair 2 B first", "pair 2 A second"]
    ):
        assert text.startswith(prefix)
        assert [field.split("=")[0] for field in text.split()[4:4 + len(metrics)]] == metrics
    assert "read_p50_us=10 " in runs[0] and "ops_per_s=6 " in runs[1]
    assert "write_p50_us=- " in runs[0]  # not in this contract line
    assert runs[2].endswith("failed=0") and runs[3].endswith("no result")
    assert out[5].startswith("metric")  # the table comes after every run

