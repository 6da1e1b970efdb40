"""Compare two result files of ``run.py``, workload by workload.

    python benchmarks/e2e/compare.py results/A.json results/B.json

For every workload and end-to-end metric: A's median, B's median, the
ratio B/A (A is the base), and one of ``improved`` / ``within-bound`` /
``regressed`` / ``unresolved`` — unresolved when either side's
run-to-run spread is wider than the metric's bound, so noise is never
reported as "unchanged".  Then, where both files hold a traced run, the
per-layer self-time deltas, largest first: the layers that account for
the change.  One row per workload and metric; nothing is averaged
across workloads.

Exit code 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Optional

from stats import format_spread, verdict

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def compare_workload(
    name: str, a: dict[str, Any], b: dict[str, Any], benchmark: dict[str, Any]
) -> list[dict[str, Any]]:
    """One row per end-to-end metric both sides measured."""
    rows = []
    for spec in benchmark["end_to_end"]:
        metric = spec["name"]
        base = a["summary"].get(metric)
        new = b["summary"].get(metric)
        if base is None or new is None:
            continue
        rows.append(
            {
                "workload": name,
                "metric": metric,
                "unit": spec["unit"],
                "a": base["median"],
                "b": new["median"],
                "ratio": new["median"] / base["median"] if base["median"] else None,
                "spread_a": format_spread(base),
                "spread_b": format_spread(new),
                "bound": spec["bound"],
                "verdict": verdict(base, new, spec["better"], spec["bound"]),
            }
        )
    return rows


def layer_deltas(a: dict[str, Any], b: dict[str, Any]) -> list[tuple[str, float, float]]:
    """``(metric, a_seconds, b_seconds)`` for every self time both traced
    runs hold, largest absolute change first."""
    layers_a = a.get("per_layer") or {}
    layers_b = b.get("per_layer") or {}
    shared = [
        name for name in layers_a
        if name in layers_b and name.endswith("_s") and name != "trace.wall_s"
    ]
    return sorted(
        ((name, layers_a[name], layers_b[name]) for name in shared),
        key=lambda row: -abs(row[2] - row[1]),
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=pathlib.Path, help="base result file")
    parser.add_argument("b", type=pathlib.Path, help="result file compared to the base")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    result_a = json.loads(args.a.read_text())
    result_b = json.loads(args.b.read_text())
    print(
        f"A = {result_a['label']} @ {result_a['stamp']['git_commit'][:12]}   "
        f"B = {result_b['label']} @ {result_b['stamp']['git_commit'][:12]}   "
        "(ratio = B / A)"
    )
    regressed = False
    for name, entry_a in result_a["workloads"].items():
        entry_b = result_b["workloads"].get(name)
        if entry_b is None:
            print(f"{name}: only in A")
            continue
        for row in compare_workload(name, entry_a, entry_b, benchmark):
            regressed = regressed or row["verdict"] == "regressed"
            print(
                f"{row['workload']:10s} {row['metric']:14s} "
                f"A {row['a']:12.6g}  B {row['b']:12.6g} {row['unit']:6s} "
                f"ratio {row['ratio']:.4f}  "
                f"spread A {row['spread_a']} B {row['spread_b']} "
                f"bound {row['bound']:.0%}  {row['verdict']}"
            )
        if entry_a["digest"] != entry_b["digest"]:
            print(
                f"{name:10s} digests differ ({entry_a['digest']} vs "
                f"{entry_b['digest']}): seeds, inputs or simulated behaviour changed"
            )
        deltas = layer_deltas(entry_a, entry_b)
        for metric, seconds_a, seconds_b in deltas:
            print(
                f"{name:10s}   {metric:22s} A {seconds_a:9.4f} s  B {seconds_b:9.4f} s  "
                f"delta {seconds_b - seconds_a:+9.4f} s"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
