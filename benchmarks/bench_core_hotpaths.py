"""Core hot-path microbenchmarks: append, fold, feeds, scheduler.

The ROADMAP's north star is a system that runs "as fast as the hardware
allows" under simulated millions-of-users traffic.  The three paths that
dominate every experiment are:

* the **append path** (log append + incremental rollup fold),
* the **log feeds** replication and indexes catch up from
  (``events_since`` / ``events_from_origin`` / ``for_entity``),
* the **discrete-event loop** every scenario runs on.

This module measures all of them with wall-clock microbenchmarks and can
emit machine-readable JSON.  ``tests/test_claims.py`` holds the
committed baseline ``BENCH_core_hotpaths.json`` to its claim (>=3x on
the fold and origin-feed paths); wall-clock regressions of the running
system are the end-to-end ladder's job (``benchmarks/e2e``).

Usage::

    python benchmarks/bench_core_hotpaths.py               # full run
    python benchmarks/bench_core_hotpaths.py --quick       # CI smoke
    python benchmarks/bench_core_hotpaths.py --json-out out.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_dataplane import best_of  # noqa: E402
from repro.bench.report import ExperimentReport  # noqa: E402
from repro.lsdb.checkpoint import CheckpointPolicy  # noqa: E402
from repro.lsdb.events import EventKind, LogEvent  # noqa: E402
from repro.lsdb.rollup import Rollup  # noqa: E402
from repro.lsdb.store import LSDBStore  # noqa: E402
from repro.merge.deltas import Delta  # noqa: E402
from repro.sim.rng import SeededRNG  # noqa: E402
from repro.sim.scheduler import Simulator  # noqa: E402

ENTITIES = 50
FIELDS_PER_ENTITY = 10


def make_delta_events(count: int, seed: int = 0) -> list[LogEvent]:
    """``count`` delta events over wide (10-field) entities."""
    rng = SeededRNG(seed)
    events = []
    for index in range(ENTITIES):
        fields = {f"f{f}": 0 for f in range(FIELDS_PER_ENTITY)}
        events.append(
            LogEvent(
                lsn=0, timestamp=0.0, entity_type="acct", entity_key=f"a{index}",
                kind=EventKind.INSERT, payload=fields,
                origin="local", origin_seq=index + 1,
            )
        )
    for index in range(count):
        key = f"a{rng.randint(0, ENTITIES - 1)}"
        field = f"f{rng.randint(0, FIELDS_PER_ENTITY - 1)}"
        payload = Delta.add(field, rng.randint(-5, 5)).to_payload()
        events.append(
            LogEvent(
                lsn=0, timestamp=float(index), entity_type="acct", entity_key=key,
                kind=EventKind.DELTA, payload=payload,
                origin="local", origin_seq=ENTITIES + index + 1,
            )
        )
    return events


def build_store(count: int, interval: int = 0, seed: int = 0) -> LSDBStore:
    store = LSDBStore()
    if interval:
        store.enable_checkpoints(CheckpointPolicy(every_events=interval))
    rng = SeededRNG(seed)
    for index in range(ENTITIES):
        store.insert("acct", f"a{index}", {f"f{f}": 0 for f in range(FIELDS_PER_ENTITY)})
    for _ in range(count):
        key = f"a{rng.randint(0, ENTITIES - 1)}"
        field = f"f{rng.randint(0, FIELDS_PER_ENTITY - 1)}"
        store.apply_delta("acct", key, Delta.add(field, rng.randint(-5, 5)))
    return store


# --------------------------------------------------------------------- #
# Individual benchmarks (each returns a metric dict)
# --------------------------------------------------------------------- #


def bench_append_throughput(count: int) -> float:
    """Local-write path: log append + incremental fold, events/sec."""

    def run() -> None:
        build_store(count)

    seconds = best_of(2, run)
    return count / seconds


def bench_fold_throughput(count: int) -> float:
    """Pure rollup fold over a prebuilt event list, events/sec.

    This isolates the reducer cost the append path pays per event
    (the copy-on-first-touch optimization target).
    """
    events = make_delta_events(count)
    rollup = Rollup()

    seconds = best_of(3, lambda: rollup.fold(events))
    return count / seconds


def bench_incremental_read(count: int, interval: int = 1_000) -> float:
    """Checkpoint + suffix-replay read latency on a long log, ms/read."""
    store = build_store(count, interval=interval)
    head = store.log.head_lsn
    seconds = best_of(5, lambda: store.state_as_of(head))
    return seconds * 1000.0


def bench_feed_catchup(count: int, backlog: int = 16) -> dict[str, float]:
    """Catch-up feeds near the head of a ``count``-event log, ops/sec.

    A caught-up subscriber (replica, index, warehouse) repeatedly asks
    for the tiny suffix it is missing; the feed cost must scale with the
    answer, not with the log.
    """
    store = build_store(count)
    head_lsn = store.log.head_lsn
    head_seq = ENTITIES + count
    repeats = 30

    def since_loop() -> None:
        for _ in range(repeats):
            store.events_since(head_lsn - backlog)

    def origin_loop() -> None:
        for _ in range(repeats):
            store.events_from_origin("local", head_seq - backlog)

    def entity_loop() -> None:
        for _ in range(repeats):
            store.log.for_entity("acct", "a7")

    return {
        "events_since_ops": repeats / best_of(3, since_loop),
        "events_from_origin_ops": repeats / best_of(3, origin_loop),
        "for_entity_ops": repeats / best_of(3, entity_loop),
    }


def bench_scheduler(sizes: tuple[int, ...]) -> dict[str, float]:
    """Discrete-event loop throughput, events fired per second."""
    results: dict[str, float] = {}
    for size in sizes:
        def run() -> None:
            sim = Simulator()
            action = lambda: None  # noqa: E731 - minimal callback
            for index in range(size):
                sim.schedule(float(index % 97), action)
            sim.run()

        seconds = best_of(2, run)
        results[str(size)] = size / seconds
    return results


def bench_scheduler_pending(size: int = 10_000, probes: int = 1_000) -> float:
    """Cost of the ``pending`` introspection probe, ops/sec."""
    sim = Simulator()
    for index in range(size):
        sim.schedule(float(index), lambda: None)

    def run() -> None:
        for _ in range(probes):
            sim.pending  # noqa: B018 - the property itself is the workload

    return probes / best_of(3, run)


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #


def collect(quick: bool = False) -> dict[str, Any]:
    """Run every microbenchmark and return the metric map."""
    store_events = 10_000 if quick else 100_000
    fold_events = 10_000 if quick else 100_000
    scheduler_sizes = (10_000,) if quick else (10_000, 100_000, 1_000_000)

    metrics: dict[str, Any] = {}
    metrics["append_throughput_eps"] = bench_append_throughput(store_events)
    metrics["fold_throughput_eps"] = bench_fold_throughput(fold_events)
    metrics["incremental_read_ms"] = bench_incremental_read(store_events)
    metrics.update(
        {f"feed_{k}": v for k, v in bench_feed_catchup(store_events).items()}
    )
    scheduler = bench_scheduler(scheduler_sizes)
    metrics["scheduler_eps"] = scheduler
    metrics["scheduler_eps_largest"] = scheduler[str(scheduler_sizes[-1])]
    metrics["scheduler_pending_ops"] = bench_scheduler_pending()
    metrics["_sizes"] = {
        "store_events": store_events,
        "fold_events": fold_events,
        "scheduler_sizes": list(scheduler_sizes),
    }
    return metrics


def sweep(quick: bool = False) -> ExperimentReport:
    """Report view, consistent with the E-suite artefacts."""
    metrics = collect(quick=quick)
    report = ExperimentReport(
        experiment_id="HOT",
        title="core hot paths: append fold, log feeds, event loop",
        claim=(
            "the rollup is an incrementally maintained aggregation and "
            "catch-up feeds are O(result), so the simulated system runs "
            "as fast as the hardware allows (ROADMAP north star, paper 3.1)"
        ),
        headers=["metric", "value"],
        notes=(
            "events/sec for throughputs, ops/sec for feed probes, "
            "milliseconds for the checkpoint read"
        ),
    )
    for key in (
        "append_throughput_eps",
        "fold_throughput_eps",
        "incremental_read_ms",
        "feed_events_since_ops",
        "feed_events_from_origin_ops",
        "feed_for_entity_ops",
        "scheduler_eps_largest",
        "scheduler_pending_ops",
    ):
        report.add_row(key, metrics[key])
    return report


def test_core_hotpaths(benchmark):
    """Feed catch-up near the head must not scan the log (perf smoke)."""
    store = build_store(5_000)
    head_lsn = store.log.head_lsn
    suffix = benchmark(lambda: store.events_since(head_lsn - 16))
    assert len(suffix) == 16
    # The indexed feed and a full scan must agree on the answer.
    scan = [event for event in store.log.events() if event.lsn > head_lsn - 16]
    assert [event.lsn for event in suffix] == [event.lsn for event in scan]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small CI sizes")
    parser.add_argument("--json-out", type=str, default="", metavar="PATH",
                        help="write raw metrics as JSON to PATH")
    parser.add_argument("--label", type=str, default="run",
                        help="label stored in the JSON meta block")
    args = parser.parse_args()

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
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    for key, value in sorted(metrics.items()):
        if key.startswith("_"):
            continue
        print(f"{key:32s} {value}")


if __name__ == "__main__":
    main()
