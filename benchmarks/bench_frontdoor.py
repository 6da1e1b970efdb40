"""Front-door overload benchmark: degrade, don't die.

PR 7's tentpole is the admission-controlled front door: a valve chain
(deadline -> quota -> backpressure -> degrade ladder) that sheds
overload by *downgrading consistency* before it ever rejects.  This
module measures that claim with an open-loop read load swept across
multiples of the strong rung's modelled capacity:

* the **frontier** — per multiplier: goodput ratio (served / offered,
  degraded serves count — they carry an honest stamp and an apology),
  hard-reject ratio, the delivered-level mix, and the staleness
  distribution (p50/p95/max) of what was actually served;
* the **strict baseline** — the same load with ``allow_degraded=False``
  (a client demanding exactly STRONG): goodput collapses toward
  ``1 / multiplier`` past saturation, which is precisely what the
  ladder exists to avoid;
* **determinism** — two same-seed runs of the 2x point must produce
  byte-identical frontiers (the door is pure virtual-time machinery).

``tests/test_claims.py`` validates the committed artefact
``BENCH_frontdoor.json`` (ISSUE 7 acceptance: at 2x overload, goodput
>= 90% of offered and hard rejects <= 5%).

Usage::

    python benchmarks/bench_frontdoor.py                  # full run
    python benchmarks/bench_frontdoor.py --quick          # CI smoke
    python benchmarks/bench_frontdoor.py --check-determinism
    python benchmarks/bench_frontdoor.py --trajectory-out BENCH_frontdoor.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.report import ExperimentReport  # noqa: E402
from repro.cluster import Cluster  # noqa: E402
from repro.core.readpath import ReadRequest  # noqa: E402

#: The strong rung's modelled capacity (reads per unit of virtual
#: time); the bounded rung gets the same budget, the eventual rung is
#: deliberately unmetered — a checkpoint snapshot never says no.
CAPACITY = 10.0
SHIP_INTERVAL = 10.0
#: Read phase: [WARMUP, WARMUP + DURATION).  The warmup lets the first
#: writes replicate so the bounded rung has a copy to serve.
WARMUP = 50.0
DURATION = 200.0
MULTIPLIERS = (0.5, 1.0, 1.5, 2.0, 3.0)
#: The acceptance point and its ISSUE 7 bounds.
ACCEPTANCE_MULTIPLIER = 2.0
MIN_GOODPUT_RATIO = 0.90
MAX_REJECT_RATIO = 0.05


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def run_point(
    multiplier: float,
    seed: int = 0,
    duration: float = DURATION,
    allow_degraded: bool = True,
) -> dict[str, Any]:
    """One open-loop run at ``multiplier`` times the strong capacity.

    A steady writer inserts one row per time unit; readers arrive at a
    fixed interarrival of ``1 / (multiplier * CAPACITY)`` asking for
    STRONG reads of rows old enough to have replicated.  Returns the
    frontier row: offered / served / degraded / rejected counts, the
    delivered-level mix, and the staleness distribution.
    """
    cluster = (
        Cluster.build(seed=seed)
        .with_tracing()
        .with_network(latency=2.0)
        .with_replicas(2, mode="master_slave", ship_interval=SHIP_INTERVAL)
        .with_front_door(
            strong_capacity=CAPACITY,
            bounded_capacity=CAPACITY,
        )
        .create()
    )
    sim = cluster.sim
    group = cluster.replication

    total_time = WARMUP + duration + 1.0
    for index in range(int(total_time)):
        sim.schedule_at(
            float(index),
            lambda i=index: group.write_insert("order", f"o-{i}", {"n": i}),
            label="write",
        )

    rate = multiplier * CAPACITY
    interarrival = 1.0 / rate
    arrivals = int(duration * rate)
    outcomes: list[dict[str, Any]] = []

    def read(at: float) -> None:
        # Read a row written ~3 shipping intervals ago: old enough that
        # a healthy slave has it, so misses measure the door, not the
        # replication pipeline.
        key = f"o-{max(0, int(at - 3.0 * SHIP_INTERVAL))}"
        result = cluster.read(
            "order",
            key,
            request=ReadRequest(allow_degraded=allow_degraded),
        )
        outcomes.append(
            {
                "delivered": (
                    result.delivered_level.value
                    if result.delivered_level is not None
                    else None
                ),
                "staleness": result.staleness,
                "degraded": result.degraded,
                "rejected": result.rejected,
                "reason": result.reject_reason,
            }
        )

    for index in range(arrivals):
        at = WARMUP + interarrival * index
        sim.schedule_at(at, lambda t=at: read(t), label="read")
    sim.run(until=total_time + 3.0 * SHIP_INTERVAL)

    served = [o for o in outcomes if not o["rejected"]]
    degraded = [o for o in served if o["degraded"]]
    rejected = [o for o in outcomes if o["rejected"]]
    mix: dict[str, int] = {}
    for outcome in served:
        mix[outcome["delivered"]] = mix.get(outcome["delivered"], 0) + 1
    staleness = [
        o["staleness"] for o in served if o["staleness"] is not None
    ]
    offered = len(outcomes)
    door = cluster.front_door
    return {
        "multiplier": multiplier,
        "offered": offered,
        "served": len(served),
        "degraded": len(degraded),
        "rejected": len(rejected),
        "goodput_ratio": round(len(served) / offered, 4) if offered else 0.0,
        "reject_ratio": round(len(rejected) / offered, 4) if offered else 0.0,
        "level_mix": {level: count for level, count in sorted(mix.items())},
        "staleness_p50": round(percentile(staleness, 0.50), 3),
        "staleness_p95": round(percentile(staleness, 0.95), 3),
        "staleness_max": round(max(staleness), 3) if staleness else 0.0,
        "door_reads": door.reads,
        "door_rejects": door.rejects,
        "door_degraded": door.degraded_serves,
    }


def collect(quick: bool = False) -> dict[str, Any]:
    """Run the sweep (degrading door + strict baseline per multiplier)."""
    duration = 50.0 if quick else DURATION
    multipliers = (1.0, 2.0) if quick else MULTIPLIERS
    frontier = []
    for multiplier in multipliers:
        row = run_point(multiplier, duration=duration)
        strict = run_point(multiplier, duration=duration, allow_degraded=False)
        row["strict_goodput_ratio"] = strict["goodput_ratio"]
        row["strict_reject_ratio"] = strict["reject_ratio"]
        frontier.append(row)
    return {
        "benchmark": "bench_frontdoor",
        "config": {
            "strong_capacity": CAPACITY,
            "bounded_capacity": CAPACITY,
            "ship_interval": SHIP_INTERVAL,
            "duration": duration,
            "quick": quick,
        },
        "frontier": frontier,
    }


def trajectory(metrics: dict[str, Any]) -> dict[str, Any]:
    """The committed artefact (``BENCH_frontdoor.json``) with the
    acceptance block ``tests/test_claims.py`` reads."""
    rows = metrics["frontier"]
    at_2x = next(
        (r for r in rows if r["multiplier"] == ACCEPTANCE_MULTIPLIER),
        rows[-1],
    )
    return {
        "benchmark": "bench_frontdoor",
        "description": (
            "Open-loop overload frontier of the admission-controlled "
            "front door. goodput_ratio is served/offered (degraded "
            "serves count; each carries a delivered-level stamp, its "
            "measured staleness, and an apology token), reject_ratio "
            "is hard rejects/offered. strict_goodput_ratio is the same "
            "load with allow_degraded=False - the counterfactual the "
            "degrade ladder exists to avoid. Capacities are reads per "
            "unit of virtual time on the strong and bounded rungs; the "
            "eventual rung (checkpoint snapshot) is unmetered."
        ),
        "config": metrics["config"],
        "frontier": rows,
        "acceptance": {
            "multiplier": at_2x["multiplier"],
            "goodput_ratio": at_2x["goodput_ratio"],
            "reject_ratio": at_2x["reject_ratio"],
            "strict_goodput_ratio": at_2x["strict_goodput_ratio"],
            "min_goodput_ratio": MIN_GOODPUT_RATIO,
            "max_reject_ratio": MAX_REJECT_RATIO,
            "pass": (
                at_2x["goodput_ratio"] >= MIN_GOODPUT_RATIO
                and at_2x["reject_ratio"] <= MAX_REJECT_RATIO
            ),
        },
    }


def check_determinism() -> bool:
    """Two same-seed runs of the 2x point must be byte-identical."""
    first = json.dumps(run_point(2.0, seed=7, duration=50.0), sort_keys=True)
    second = json.dumps(run_point(2.0, seed=7, duration=50.0), sort_keys=True)
    ok = first == second
    print(f"determinism: {'PASS' if ok else 'FAIL'}")
    if not ok:
        print(f"  run 1: {first}")
        print(f"  run 2: {second}")
    return ok


def sweep() -> ExperimentReport:
    """The ``run_all.py`` entry point."""
    metrics = collect(quick=True)
    report = ExperimentReport(
        experiment_id="FD",
        title="Front door: overload sheds down the ladder, not out the door",
        claim=(
            "under overload the front door downgrades consistency "
            "(stamped, apologised) instead of rejecting: goodput stays "
            "near 100% of offered load while a strict client's "
            "collapses toward capacity/offered (2.3/2.9)"
        ),
        headers=[
            "multiplier",
            "goodput",
            "rejects",
            "degraded",
            "strict_goodput",
            "staleness_p95",
        ],
        notes=(
            "the level mix walks down the ladder as load rises - the "
            "strong rung saturates first, then the bounded rung, and "
            "the checkpoint rung absorbs the rest at measured staleness"
        ),
    )
    for row in metrics["frontier"]:
        report.add_row(
            row["multiplier"],
            row["goodput_ratio"],
            row["reject_ratio"],
            row["degraded"],
            row["strict_goodput_ratio"],
            row["staleness_p95"],
        )
    return report


def test_overload_sheds_down_the_ladder(benchmark):
    overloaded = benchmark(run_point, 2.0, 0, 50.0)
    # At 2x the strong rung's capacity the door still serves everything:
    # the overflow degrades (stamped + apologised) instead of rejecting.
    assert overloaded["goodput_ratio"] >= MIN_GOODPUT_RATIO
    assert overloaded["reject_ratio"] <= MAX_REJECT_RATIO
    assert overloaded["degraded"] > 0
    # The same load with degradation forbidden collapses toward 1/2.
    strict = run_point(2.0, duration=50.0, allow_degraded=False)
    assert strict["goodput_ratio"] < 0.7
    # Under capacity nothing degrades at all.
    calm = run_point(0.5, duration=50.0)
    assert calm["degraded"] == 0 and calm["goodput_ratio"] == 1.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small CI sizes")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run the 2x point twice and compare signatures")
    parser.add_argument("--json-out", type=str, default="", metavar="PATH",
                        help="write raw metrics as JSON to PATH")
    parser.add_argument("--trajectory-out", type=str, default="", metavar="PATH",
                        help="write the frontier artefact "
                             "(BENCH_frontdoor.json) to PATH")
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
    for row in metrics["frontier"]:
        print(
            f"x{row['multiplier']:<4g} offered {row['offered']:>5d}  "
            f"goodput {row['goodput_ratio']:6.2%}  "
            f"rejects {row['reject_ratio']:6.2%}  "
            f"degraded {row['degraded']:>5d}  "
            f"strict {row['strict_goodput_ratio']:6.2%}  "
            f"mix {row['level_mix']}  "
            f"staleness p95 {row['staleness_p95']:g}"
        )


if __name__ == "__main__":
    main()
