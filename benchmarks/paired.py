"""Paired comparison of two revisions on one end-to-end workload.

    python benchmarks/paired.py REV_A REV_B --workload ms_hot --seed 2718 --pairs 10

Checks each revision out in its own detached ``git worktree`` under a
temporary directory and runs that checkout's
``benchmarks/e2e/run.py --workload W --seed S`` once per side per pair,
alternating which side runs first, so drift on the box lands on both
sides alike.  Each run's result is the last JSON line it prints (the
ladder's contract line), and each run prints one line as it ends: the
pair, the side, whether that side ran first or second in its pair, and
every end-to-end metric — so a noisy pair can be told from a slow side.
Then, per end-to-end metric of ``BENCHMARK.json``: each side's median
and quartiles, the ratio of the medians (B over A, so A is the base)
and how many pairs B won — in the metric's ``better`` direction, ties
counting for neither side — plus failed operations and failed runs on
each side.  The worktrees are removed however the runs end.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent


def contract(stdout: str) -> Optional[dict[str, Any]]:
    """The last JSON object line of a run's output (``None`` if none)."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                return None
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    pairs: list[tuple[Optional[dict[str, Any]], Optional[dict[str, Any]]]],
    better: dict[str, str],
) -> dict[str, Any]:
    """Per-metric medians, quartiles, ratio and B's wins over ``pairs``.

    ``pairs`` holds one ``(A result, B result)`` per pair, each a
    contract line's object or ``None`` for a run that printed none;
    ``better`` maps each metric to ``"lower"`` or ``"higher"``.  A pair
    missing either side counts toward neither side's wins.
    """
    rows = []
    for metric, direction in better.items():
        side_values: tuple[list[float], list[float]] = ([], [])
        wins = compared = 0
        for pair in pairs:
            values = [_value(result, metric) for result in pair]
            for side, value in zip(side_values, values):
                if value is not None:
                    side.append(value)
            a, b = values
            if a is None or b is None:
                continue
            compared += 1
            if (b < a) if direction == "lower" else (b > a):
                wins += 1
        if not side_values[0] or not side_values[1]:
            continue
        spread_a, spread_b = quartiles(side_values[0]), quartiles(side_values[1])
        rows.append(
            {
                "metric": metric,
                "a": spread_a,
                "b": spread_b,
                "ratio": spread_b[1] / spread_a[1] if spread_a[1] else None,
                "wins": wins,
                "compared": compared,
            }
        )
    return {
        "pairs": len(pairs),
        "metrics": rows,
        "failed": [_failures([pair[side] for pair in pairs]) for side in (0, 1)],
    }


def _value(result: Optional[dict[str, Any]], metric: str) -> Optional[float]:
    if result is None:
        return None
    entry = result.get("metrics", {}).get(metric)
    return None if entry is None else float(entry["value"])


def _failures(results: list[Optional[dict[str, Any]]]) -> dict[str, int]:
    ran = [result for result in results if result is not None]
    return {
        "runs": len(results) - len(ran) + sum(not r.get("correct", True) for r in ran),
        "ops": sum(r.get("failed", 0) for r in ran),
        "attempted": sum(r.get("attempted", 0) for r in ran),
    }


def format_summary(summary: dict[str, Any], label_a: str, label_b: str) -> str:
    """The summary as a table: one row per metric, then failures."""
    lines = [
        f"{'metric':14s} {label_a + ' median [q1, q3]':>30s} "
        f"{label_b + ' median [q1, q3]':>30s} {'B/A':>8s} {'B wins':>7s}"
    ]
    for row in summary["metrics"]:
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}x"
        lines.append(
            f"{row['metric']:14s} {_spread(row['a']):>30s} {_spread(row['b']):>30s} "
            f"{ratio:>8s} {row['wins']:>3d}/{row['compared']:<3d}"
        )
    for label, failed in zip((label_a, label_b), summary["failed"]):
        lines.append(
            f"failed {label}: {failed['runs']} of {summary['pairs']} runs, "
            f"{failed['ops']} of {failed['attempted']} operations"
        )
    return "\n".join(lines)


def format_run(
    pair: int, side: str, order: str, result: Optional[dict[str, Any]], metrics
) -> str:
    """One run's line: pair number, side, ``first``/``second`` and each
    of ``metrics`` (``-`` where the run reported none)."""
    values = []
    for metric in metrics:
        value = _value(result, metric)
        shown = "-" if value is None else _number(value)
        values.append(f"{metric}={shown}")
    failed = "no result" if result is None else f"failed={result.get('failed', 0)}"
    return f"pair {pair} {side} {order:6s} " + " ".join(values) + f" {failed}"


def _number(value: float) -> str:
    return f"{value:.0f}" if abs(value) >= 1e4 else f"{value:.4g}"


def _spread(quartile: tuple[float, float, float]) -> str:
    q1, median, q3 = (_number(value) for value in quartile)
    return f"{median} [{q1}, {q3}]"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _run(checkout: pathlib.Path, workload: str, seed: int) -> Optional[dict[str, Any]]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    completed = subprocess.run(
        [
            sys.executable,
            "benchmarks/e2e/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
        ],
        cwd=checkout,
        env=env,
        capture_output=True,
        text=True,
    )
    return contract(completed.stdout)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a", help="base revision (A)")
    parser.add_argument("rev_b", help="revision compared against it (B)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    revs = [_git("rev-parse", "--short", rev) for rev in (args.rev_a, args.rev_b)]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {spec["name"]: spec["better"] for spec in benchmark["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="paired-") as tmp:
        checkouts = [pathlib.Path(tmp) / side for side in ("a", "b")]
        added = []
        try:
            for checkout, rev in zip(checkouts, revs):
                _git("worktree", "add", "--detach", str(checkout), rev)
                added.append(checkout)
            print(
                f"{args.workload} seed={args.seed} pairs={args.pairs} "
                f"A={revs[0]} B={revs[1]}",
                flush=True,
            )
            pairs = []
            for index in range(args.pairs):
                order = (0, 1) if index % 2 == 0 else (1, 0)
                results: list[Optional[dict[str, Any]]] = [None, None]
                for position, side in enumerate(order):
                    results[side] = _run(checkouts[side], args.workload, args.seed)
                    print(
                        format_run(
                            index + 1,
                            "AB"[side],
                            ("first", "second")[position],
                            results[side],
                            better,
                        ),
                        flush=True,
                    )
                pairs.append((results[0], results[1]))
        finally:
            for checkout in added:
                _git("worktree", "remove", "--force", str(checkout))
    print(format_summary(summarize(pairs, better), "A", "B"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
