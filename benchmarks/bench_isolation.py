"""Isolation benchmark: the anomaly scorecard, executed.

ISSUE 9's tentpole adds ``IsolationLevel.{SNAPSHOT, NMSI}`` between
solipsistic commits and serializable OCC.  This module runs the
``repro.isolation`` harness and records the two claims that justify
the spectrum:

* **The anomaly matrix matches theory exactly** — every canned history
  (dirty read, read skew, lost update, write skew, long fork,
  non-monotonic snapshot) runs under every mode; the
  ``AnomalyDetector``'s verdicts must equal
  ``repro.isolation.scorecard.THEORY`` cell for cell.  Serializable
  admits nothing; SI admits exactly write skew; NMSI additionally
  admits long forks and non-monotonic snapshots while still forbidding
  lost updates; solipsistic loses updates outright.
* **SI is cheaper than serializable under load** — the open-loop
  arrival schedule (hot key + read-only mix) prices each mode: SI's
  abort rate and commit latency must stay within bounds relative to
  serializable, solipsistic must demonstrably lose updates (that is
  what "no aborts" costs), and no snapshot level may lose any.

``tests/test_claims.py`` validates the committed artefact
``BENCH_isolation.json``; the artefact is byte-deterministic, so CI
also double-runs the scorecard and diffs (``--check-determinism``).

Usage::

    python benchmarks/bench_isolation.py                  # full run
    python benchmarks/bench_isolation.py --quick          # CI smoke
    python benchmarks/bench_isolation.py --check-determinism
    python benchmarks/bench_isolation.py --trajectory-out BENCH_isolation.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.report import ExperimentReport  # noqa: E402
from repro.isolation import scorecard  # noqa: E402
from repro.isolation.scorecard import ANOMALIES, MODES  # noqa: E402

#: ISSUE 9 acceptance bounds: SI must not abort *more* than serializable
#: under the same load (that is the point of giving up write-skew
#: freedom), and its commit latency must stay comparable.
MAX_SI_ABORT_RATIO = 1.0
MAX_SI_LATENCY_RATIO = 1.25
TRANSACTIONS = 400
QUICK_TRANSACTIONS = 120


def _ratio(numerator: float, denominator: float) -> float:
    """Bounded-ratio helper: 0/0 counts as 0 (vacuously cheap), x/0 as
    infinity (never acceptable)."""
    if denominator == 0.0:
        return 0.0 if numerator == 0.0 else float("inf")
    return round(numerator / denominator, 6)


def collect(quick: bool = False) -> dict[str, Any]:
    """Run the full scorecard (matrix + per-mode load)."""
    metrics = scorecard(quick=quick)
    load = metrics["load"]
    si, serializable = load["snapshot"], load["serializable"]
    metrics["benchmark"] = "bench_isolation"
    metrics["si_vs_serializable"] = {
        "abort_ratio": _ratio(si["abort_rate"], serializable["abort_rate"]),
        "latency_ratio": _ratio(
            si["commit_latency_p95"], serializable["commit_latency_p95"]
        ),
    }
    return metrics


def trajectory(metrics: dict[str, Any]) -> dict[str, Any]:
    """The committed artefact (``BENCH_isolation.json``) with the
    acceptance block ``tests/test_claims.py`` reads."""
    load = metrics["load"]
    ratios = metrics["si_vs_serializable"]
    lost = {mode: load[mode]["lost_updates"] for mode in load}
    gate_pass = (
        bool(metrics["matches_theory"])
        and ratios["abort_ratio"] <= MAX_SI_ABORT_RATIO
        and ratios["latency_ratio"] <= MAX_SI_LATENCY_RATIO
        and lost["solipsistic"] > 0
        and lost["nmsi"] == 0
        and lost["snapshot"] == 0
        and lost["serializable"] == 0
    )
    return {
        "benchmark": "bench_isolation",
        "description": (
            "The isolation spectrum, executed. matrix[mode][anomaly] "
            "records whether each canned anomaly history materialized "
            "under each IsolationLevel (with the detector's evidence); "
            "matrix must equal the published THEORY cell for cell. "
            "load prices each mode under an identical open-loop "
            "hot-key schedule: abort rate, commit latency, snapshot "
            "age, and lost_updates = committed increments minus "
            "increments reflected in final state (solipsistic's zero "
            "abort rate is paid for in lost updates; no snapshot level "
            "may lose any)."
        ),
        "config": metrics["config"],
        "matrix": metrics["matrix"],
        "theory": metrics["theory"],
        "load": load,
        "acceptance": {
            "matches_theory": metrics["matches_theory"],
            "mismatches": metrics["mismatches"],
            "si_abort_ratio": ratios["abort_ratio"],
            "max_si_abort_ratio": MAX_SI_ABORT_RATIO,
            "si_latency_ratio": ratios["latency_ratio"],
            "max_si_latency_ratio": MAX_SI_LATENCY_RATIO,
            "lost_updates": lost,
            "pass": gate_pass,
        },
    }


def check_determinism() -> bool:
    """Two quick scorecard runs must serialize byte-identically."""
    first = json.dumps(collect(quick=True), sort_keys=True)
    second = json.dumps(collect(quick=True), sort_keys=True)
    ok = first == second
    print(f"determinism: {'PASS' if ok else 'FAIL'}")
    if not ok:
        print(f"  run 1: {first[:400]}...")
        print(f"  run 2: {second[:400]}...")
    return ok


def sweep() -> ExperimentReport:
    """The ``run_all.py`` entry point."""
    metrics = collect(quick=True)
    ratios = metrics["si_vs_serializable"]
    report = ExperimentReport(
        experiment_id="ISO",
        title="Isolation spectrum: anomalies admitted vs price paid",
        claim=(
            "between solipsistic commits and serializability sit SI and "
            "NMSI: fewer aborts than OCC, no lost updates, and exactly "
            "the anomalies the theory admits (2.10, NMSI paper)"
        ),
        headers=[
            "mode", "anomalies", "abort_rate", "lost_updates", "latency_p95"
        ],
        notes=(
            f"matrix matches theory: {metrics['matches_theory']}; "
            f"SI/serializable abort ratio {ratios['abort_ratio']} "
            f"(gate <= {MAX_SI_ABORT_RATIO}), latency ratio "
            f"{ratios['latency_ratio']} (gate <= {MAX_SI_LATENCY_RATIO})"
        ),
    )
    for mode in MODES:
        row = metrics["load"][mode.value]
        admitted = [
            anomaly for anomaly in ANOMALIES
            if metrics["matrix_bools"][mode.value][anomaly]
        ]
        report.add_row(
            mode.value,
            ",".join(admitted) or "none",
            row["abort_rate"],
            row["lost_updates"],
            row["commit_latency_p95"],
        )
    return report


def test_scorecard_matches_theory(benchmark):
    metrics = benchmark(collect, True)
    assert metrics["matches_theory"], metrics["mismatches"]
    load = metrics["load"]
    # Solipsism's zero abort rate is bought with lost updates; every
    # stronger level must lose none.
    assert load["solipsistic"]["lost_updates"] > 0
    for mode in ("nmsi", "snapshot", "serializable"):
        assert load[mode]["lost_updates"] == 0, mode
    ratios = metrics["si_vs_serializable"]
    assert ratios["abort_ratio"] <= MAX_SI_ABORT_RATIO
    assert ratios["latency_ratio"] <= MAX_SI_LATENCY_RATIO


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small CI sizes")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run the scorecard twice and diff the JSON")
    parser.add_argument("--json-out", type=str, default="", metavar="PATH",
                        help="write raw metrics as JSON to PATH")
    parser.add_argument("--trajectory-out", type=str, default="", metavar="PATH",
                        help="write the artefact (BENCH_isolation.json) to PATH")
    parser.add_argument("--label", type=str, default="run",
                        help="label stored in the JSON meta block")
    args = parser.parse_args()

    if args.check_determinism and not check_determinism():
        raise SystemExit(1)

    metrics = collect(quick=args.quick)
    payload = {
        "meta": {
            "label": args.label,
            "quick": args.quick,
            "python": sys.version.split()[0],
        },
        "metrics": metrics,
    }
    if args.json_out:
        pathlib.Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.trajectory_out:
        pathlib.Path(args.trajectory_out).write_text(
            json.dumps(trajectory(metrics), indent=2) + "\n", encoding="utf-8"
        )
    print(f"matrix matches theory: {metrics['matches_theory']}")
    for mismatch in metrics["mismatches"]:
        print(f"  MISMATCH {mismatch}")
    header = "anomalies admitted"
    print(f"{'mode':<14} {header:<42} abort%  lost  latency_p95")
    for mode in MODES:
        row = metrics["load"][mode.value]
        admitted = [
            anomaly for anomaly in ANOMALIES
            if metrics["matrix_bools"][mode.value][anomaly]
        ]
        print(
            f"{mode.value:<14} {','.join(admitted) or 'none':<42} "
            f"{row['abort_rate']:>6.1%} {row['lost_updates']:>5d}  "
            f"{row['commit_latency_p95']:g}"
        )
    ratios = metrics["si_vs_serializable"]
    print(
        f"SI vs serializable: abort ratio {ratios['abort_ratio']} "
        f"(gate <= {MAX_SI_ABORT_RATIO}), latency ratio "
        f"{ratios['latency_ratio']} (gate <= {MAX_SI_LATENCY_RATIO})"
    )


if __name__ == "__main__":
    main()
