"""Measure one workload in this process: warm up, repeat rounds, reduce.

One invocation runs the same seeded round again and again on fresh
clusters until the time budget is spent, and reports the *median over
rounds* of every timed metric — so one round hit by a noisy neighbour
on a shared box does not move the result.  Because every round has the
same inputs, every round must also produce the same digest and counts;
a mismatch is a correctness failure, not noise.

Latency goes one step further.  Sample ``i`` of every round timed the
same operation, so each operation's latency is first reduced to its
median across rounds and the percentiles are taken over those: what an
operation costs stays, what landed on it in one round only (a collector
pause, a neighbour's burst) is voted out.  Such costs still count, in
``ops_per_s``.
"""

from __future__ import annotations

import gc
import resource
import statistics
from time import perf_counter
from typing import Any, Optional

from harness import Round, run_round
from stats import per_op_median, percentile_or_none
from workloads import WORKLOADS

#: Share of the full virtual duration one measured round covers: 120
#: virtual time units of arrivals (~60k client ops) plus the drain —
#: short enough for seven rounds per run, long enough for the first
#: warehouse extract (t=100) to land inside the arrivals.
ROUND_SCALE = 0.3
SMOKE_SCALE = 0.05
#: The untimed pass that lets imports, caches and allocator pools settle.
WARMUP_SCALE = 0.02
#: Latency percentiles use exactly this many rounds (the first ones): the
#: per-operation median over more rounds sits measurably lower, so a
#: count that varied with machine speed would move the metric by itself.
#: An untraced run never stops before it has them.  Seven, because a
#: slow phase of the box covers about a fifth of the time: the share of
#: operations it reaches in a majority of rounds is 10 % with three
#: rounds and 3 % with seven.
LATENCY_ROUNDS = 7

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "write_p50_us": "us",
    "write_p99_us": "us",
    "read_p50_us": "us",
    "read_p99_us": "us",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Units of the per-layer metrics that are not plain counts.
_LAYER_UNITS = {
    "staleness_p99_vt": "vt",
    "degraded_share": "ratio",
    "failed_share": "ratio",
    "cache.hit_ratio": "ratio",
    "ship.events_per_frame": "ratio",
    "trace.overhead_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name in _LAYER_UNITS:
        return _LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def _latency_us(rounds: list[Round], attr: str) -> dict[str, Optional[float]]:
    """p50 and p99 (µs) over operations of each operation's median
    latency across the first :data:`LATENCY_ROUNDS` rounds."""
    per_op = sorted(
        per_op_median([getattr(r, attr) for r in rounds[:LATENCY_ROUNDS]])
    )
    return {
        "p50": _scaled(percentile_or_none(per_op, 0.50)),
        "p99": _scaled(percentile_or_none(per_op, 0.99)),
    }


def _scaled(nanoseconds: Optional[float]) -> Optional[float]:
    return None if nanoseconds is None else nanoseconds / 1000.0


def _repeat_rounds(
    workload,
    seed: int,
    scale: float,
    traced: bool,
    *,
    seconds: float = 0.0,
    rounds: Optional[int] = None,
) -> list[list[Round]]:
    """Run iterations until ``seconds`` have passed (and, untraced, at
    least :data:`LATENCY_ROUNDS`), or exactly ``rounds`` of them when
    given.  An iteration is one untraced round, plus one traced round
    of the same seed when ``traced``."""
    iterations: list[list[Round]] = []
    start = perf_counter()
    while True:
        gc.collect()  # the previous cluster is cyclic garbage; free it untimed
        iteration = [run_round(workload, seed, scale)]
        if traced:
            gc.collect()
            iteration.append(run_round(workload, seed, scale, traced=True))
        iterations.append(iteration)
        if rounds is not None:
            done = len(iterations) >= rounds
        else:
            # Stop where the total lands closest to the budget.
            elapsed = perf_counter() - start
            done = (
                elapsed + 0.5 * elapsed / len(iterations) >= seconds
                and (traced or len(iterations) >= LATENCY_ROUNDS)
            )
        if done:
            return iterations


def measure(
    name: str,
    seed: int,
    seconds: float,
    traced: bool = False,
    smoke: bool = False,
) -> dict[str, Any]:
    """Everything one invocation learned about workload ``name``.

    Returns a dict with ``end_to_end`` and (when ``traced``) ``per_layer``
    metric maps, ``attempted`` / ``failed`` totals, ``failures`` naming
    each failed check, and bookkeeping for the result file.
    """
    workload = WORKLOADS[name]
    if smoke:
        # The double run: two rounds of one seed must be byte-identical.
        iterations = _repeat_rounds(workload, seed, SMOKE_SCALE, traced, rounds=2)
    else:
        run_round(workload, seed, WARMUP_SCALE)
        iterations = _repeat_rounds(
            workload, seed, ROUND_SCALE, traced, seconds=seconds
        )

    untraced = [iteration[0] for iteration in iterations]
    every = [r for iteration in iterations for r in iteration]
    reference = untraced[0]

    failures = [f for r in every for f in r.failures]
    for index, r in enumerate(every):
        if r.digest != reference.digest or r.counts != reference.counts:
            differing = sorted(
                key for key in reference.counts
                if r.counts.get(key) != reference.counts[key]
            )
            failures.append(
                f"round {index} of seed {seed} diverged from round 0: digest "
                f"{r.digest} vs {reference.digest}, counts differing: {differing}"
            )
    attempted = sum(r.ops for r in every)
    # Failed operations (rejected or out-of-bound reads, aborted or
    # raised writes) plus failed end-of-run checks.
    failed = len(failures) + sum(
        r.counts["reads.rejected"]
        + r.counts["reads.bound_violated"]
        + r.counts["writes.failed"]
        for r in every
    )
    failures.extend(line for r in every for line in r.op_failures)

    reads = reference.counts["ops.reads"]
    shared = {
        "staleness_p99_vt": reference.staleness_p99,
        "degraded_share": reference.counts["reads.degraded"] / reads,
        "failed_share": failed / attempted,
    }

    write_us = _latency_us(untraced, "write_ns")
    read_us = _latency_us(untraced, "read_ns")
    end_to_end = {
        "ops_per_s": statistics.median(r.ops / r.wall_s for r in untraced),
        "write_p50_us": write_us["p50"],
        "write_p99_us": write_us["p99"],
        "read_p50_us": read_us["p50"],
        "read_p99_us": read_us["p99"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(r.setup_s for r in untraced),
    }

    report: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "rounds": len(untraced),
        "ops_per_round": reference.ops,
        "samples": {
            "write": reference.counts["ops.writes"],
            "read": reference.counts["ops.reads"],
            "served_reads": reads - reference.counts["reads.rejected"],
        },
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": reference.digest,
        "end_to_end": end_to_end,
        "shared": shared,
    }
    if traced:
        report["per_layer"], report["trace"] = _per_layer(iterations, shared)
    return report


def _per_layer(
    iterations: list[list[Round]], shared: dict[str, Any]
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Per-layer metrics from the traced round with the median wall, so
    the self times still add up to one real run's wall exactly."""
    traced = sorted((it[1] for it in iterations), key=lambda r: r.wall_s)
    chosen = traced[(len(traced) - 1) // 2]
    untraced_wall = statistics.median(it[0].wall_s for it in iterations)
    counts = chosen.counts
    lookups = counts["cache.lookups"]

    per_layer: dict[str, Any] = dict(shared)
    per_layer.update(
        {
            key: value
            for key, value in counts.items()
            if not key.startswith(("ops.", "reads.", "writes."))
        }
    )
    per_layer.update(chosen.layers)
    per_layer.update(
        {
            "cache.hit_ratio": counts["cache.hits"] / lookups if lookups else 0.0,
            "driver.writes": counts["ops.writes"],
            "driver.reads": counts["ops.reads"],
            "trace.wall_s": chosen.wall_s,
            "trace.overhead_ratio": chosen.wall_s / untraced_wall,
        }
    )
    self_times = {
        key: value
        for key, value in chosen.layers.items()
        if key.endswith("_s")
    }
    ranked = sorted(self_times.items(), key=lambda item: -item[1])
    trace = {
        "wall_s": chosen.wall_s,
        "self_time_sum_s": sum(self_times.values()),
        "top_layers": [
            {"metric": key, "self_s": value, "share": value / chosen.wall_s}
            for key, value in ranked[:3]
        ],
        "spans": chosen.spans,
    }
    return per_layer, trace
