"""Data-plane benchmarks: frame shipping, checkpoints, O(delta) recovery.

PR 5's tentpole is a batched data plane: replication ships LSN-contiguous
*frames* instead of one wire message per event, rollup checkpoints make
recovery O(delta since checkpoint) instead of O(log), and ``__slots__``
shrinks the per-event footprint of the insert-only log.  This module
measures all three claims:

* **ship throughput** — events/sec through a primary->backup ship+apply
  cycle at frame sizes 1 (unbatched), 64 and 1024, with a metrics
  registry attached (the production setting: per-message metric work
  amortises under batching);
* **wire messages** — frames on the wire for the same event volume;
* **replication lag** — mean backlog under an open-loop write load,
  batched vs unbatched (batching must not trade lag for throughput);
* **cold recovery** — ``store.recover()`` from the latest rollup
  checkpoint vs a full log replay, at two log lengths: checkpointed
  recovery time must be independent of log length;
* **event footprint** — bytes/event of the slotted :class:`LogEvent`
  vs an identical ``__dict__``-based record, plus append throughput.

``tests/test_claims.py`` validates the committed trajectory file
``BENCH_dataplane.json`` (>=5x ship throughput at frame 64, >=10x fewer
wire messages, recovery independent of log length).

Usage::

    python benchmarks/bench_dataplane.py                  # full run
    python benchmarks/bench_dataplane.py --quick          # CI smoke
    python benchmarks/bench_dataplane.py --check-determinism
    python benchmarks/bench_dataplane.py --json-out out.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
import tracemalloc
from typing import Any, Callable, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.report import ExperimentReport  # noqa: E402
from repro.lsdb.checkpoint import CheckpointPolicy  # noqa: E402
from repro.lsdb.events import EventKind, LogEvent  # noqa: E402
from repro.lsdb.store import LSDBStore  # noqa: E402
from repro.merge.deltas import Delta  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.replication.batching import BatchPolicy  # noqa: E402
from repro.replication.master_slave import MasterSlaveGroup  # noqa: E402
from repro.replication.replica import ReplicaNode  # noqa: E402
from repro.sim.network import Network  # noqa: E402
from repro.sim.rng import SeededRNG  # noqa: E402
from repro.sim.scheduler import Simulator  # noqa: E402

ENTITIES = 50
FIELDS_PER_ENTITY = 10

#: Frame sizes the ship benchmark sweeps (None = unbatched, one event
#: per frame — the pre-PR wire behaviour).
FRAME_SIZES: tuple[Optional[int], ...] = (None, 64, 1024)


def best_of(repeats: int, fn: Callable[[], Any]) -> float:
    """Smallest wall-clock seconds over ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def populate(store: LSDBStore, deltas: int, seed: int = 0) -> int:
    """Insert ``ENTITIES`` wide entities then ``deltas`` delta events;
    returns the total event count."""
    rng = SeededRNG(seed)
    for index in range(ENTITIES):
        store.insert(
            "acct", f"a{index}", {f"f{f}": 0 for f in range(FIELDS_PER_ENTITY)}
        )
    for _ in range(deltas):
        key = f"a{rng.randint(0, ENTITIES - 1)}"
        field = f"f{rng.randint(0, FIELDS_PER_ENTITY - 1)}"
        store.apply_delta("acct", key, Delta.add(field, rng.randint(-5, 5)))
    return ENTITIES + deltas


# --------------------------------------------------------------------- #
# Ship throughput and wire-message volume
# --------------------------------------------------------------------- #


def _ship_once(max_batch: Optional[int], deltas: int) -> tuple[float, int]:
    """One primary->backup backlog ship; returns (seconds, wire messages).

    The backlog is pre-populated so the window times exactly the data
    plane: chunking, frame transit, and remote apply — not the primary's
    local writes.  A metrics registry is attached (the realistic case:
    per-frame metric increments amortise under batching).
    """
    sim = Simulator(seed=7, metrics=MetricsRegistry())
    network = Network(sim, latency=1.0)
    policy = BatchPolicy(max_batch=max_batch)
    primary = network.register(ReplicaNode("primary", sim, batching=policy))
    backup = network.register(ReplicaNode("backup", sim, batching=policy))
    total = populate(primary.store, deltas)
    backlog = primary.store.events_since(0)
    start = time.perf_counter()
    primary.ship_events(backup.node_id, backlog)
    sim.run()
    elapsed = time.perf_counter() - start
    if backup.events_received != total:
        raise AssertionError(
            f"backup applied {backup.events_received} of {total} events"
        )
    return elapsed, network.stats.sent


def bench_ship(deltas: int) -> dict[str, Any]:
    """Ship+apply throughput and wire volume per frame size."""
    total = ENTITIES + deltas
    out: dict[str, Any] = {"events": total}
    for max_batch in FRAME_SIZES:
        label = "1" if max_batch is None else str(max_batch)
        runs = [_ship_once(max_batch, deltas) for _ in range(3)]
        out[f"ship_throughput_eps_batch_{label}"] = total / min(
            seconds for seconds, _ in runs
        )
        # Wire volume is deterministic: every run sends the same frames.
        out[f"wire_messages_batch_{label}"] = runs[0][1]
    return out


# --------------------------------------------------------------------- #
# Replication lag under open-loop load
# --------------------------------------------------------------------- #


def bench_lag(duration: float) -> dict[str, float]:
    """Mean replication backlog (events) under a fixed open-loop write
    rate, unbatched vs frame-64.  Virtual-time metric: deterministic,
    and batching must not inflate it."""
    out: dict[str, float] = {}
    for max_batch in (None, 64):
        sim = Simulator(seed=11)
        network = Network(sim, latency=2.0)
        pair = MasterSlaveGroup(
            sim,
            network,
            "primary",
            ["backup"],
            ship_interval=5.0,
            batching=BatchPolicy(max_batch=max_batch),
        )
        writes = int(duration * 2)  # one write every 0.5 time units
        for index in range(writes):
            sim.schedule_at(
                0.5 * index,
                lambda i=index: pair.write_delta(
                    "acct", f"a{i % ENTITIES}", Delta.add("f0", 1)
                ),
                label="lag-write",
            )
        samples: list[int] = []
        tick = 5.0
        at = tick
        while at <= duration:
            sim.schedule_at(
                at,
                lambda: samples.append(pair.replication_lag_events),
                label="lag-sample",
            )
            at += tick
        sim.run(until=duration + 50.0)
        label = "1" if max_batch is None else str(max_batch)
        out[f"mean_lag_events_batch_{label}"] = sum(samples) / len(samples)
    return out


# --------------------------------------------------------------------- #
# Cold recovery: checkpoint + delta vs full replay
# --------------------------------------------------------------------- #


def bench_recovery(lengths: tuple[int, ...]) -> dict[str, float]:
    """``store.recover()`` wall-clock at several log lengths.

    With a checkpoint cadence of 1000 events the replayed delta is
    bounded by the cadence regardless of log length, so the checkpointed
    recovery time must *not* scale with the log — that independence is
    the O(delta) claim, and the full-replay numbers alongside show what
    it replaced."""
    out: dict[str, float] = {}
    for length in lengths:
        store = LSDBStore()
        manager = store.enable_checkpoints(CheckpointPolicy(every_events=1000))
        populate(store, length)
        full_seconds = best_of(3, lambda: store.rebuild_cache(full=True))
        ckpt_seconds = best_of(3, lambda: store.recover())
        out[f"full_replay_ms_{length}"] = full_seconds * 1000.0
        out[f"checkpoint_recovery_ms_{length}"] = ckpt_seconds * 1000.0
        out[f"delta_events_{length}"] = float(manager.delta_events)
    return out


# --------------------------------------------------------------------- #
# Event footprint: __slots__ vs __dict__
# --------------------------------------------------------------------- #


class _DictEvent:
    """The pre-slots LogEvent shape: same 13 fields, per-instance
    ``__dict__`` — the in-bench baseline the memory delta is against."""

    def __init__(self, lsn, timestamp, entity_type, entity_key, kind, payload,
                 origin, origin_seq, tx_id, schema_version, tags, trace_id,
                 span_id):
        self.lsn = lsn
        self.timestamp = timestamp
        self.entity_type = entity_type
        self.entity_key = entity_key
        self.kind = kind
        self.payload = payload
        self.origin = origin
        self.origin_seq = origin_seq
        self.tx_id = tx_id
        self.schema_version = schema_version
        self.tags = tags
        self.trace_id = trace_id
        self.span_id = span_id


#: Shared across instances so the footprint measured is the *record*
#: (slots vs __dict__), not payload dicts and key strings.
_PAYLOAD: dict = {"f0": 1}
_KEYS = tuple(f"a{index}" for index in range(ENTITIES))
_TAGS: frozenset = frozenset()


def _event_args(index: int) -> tuple:
    return (index, float(index), "acct", _KEYS[index % ENTITIES],
            EventKind.DELTA, _PAYLOAD, "local", index + 1, "", 1,
            _TAGS, "", "")


def bench_slots(count: int) -> dict[str, float]:
    """Bytes/event and construction throughput, slotted vs dict-based."""

    def measure_bytes(factory: Callable[[int], Any]) -> float:
        tracemalloc.start()
        items = [factory(index) for index in range(count)]
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del items
        return peak / count

    slotted = lambda i: LogEvent(*_event_args(i))  # noqa: E731
    dict_based = lambda i: _DictEvent(*_event_args(i))  # noqa: E731
    out = {
        "event_bytes_slots": measure_bytes(slotted),
        "event_bytes_dict": measure_bytes(dict_based),
    }
    # Both construction rates divide the same ``count`` so the
    # before/after trajectory entries share a denominator.
    out["event_create_eps"] = count / best_of(
        3, lambda: [LogEvent(*_event_args(i)) for i in range(count)]
    )
    out["event_create_eps_dict"] = count / best_of(
        3, lambda: [_DictEvent(*_event_args(i)) for i in range(count)]
    )
    sample = LogEvent(*_event_args(0))
    out["event_with_lsn_eps"] = count / best_of(
        3, lambda: [sample.with_lsn(i) for i in range(count)]
    )
    return out


# --------------------------------------------------------------------- #
# Determinism check (frame-granular chaos must stay reproducible)
# --------------------------------------------------------------------- #


def determinism_signature(seed: int = 23) -> dict[str, Any]:
    """One small lossy batched replication run, reduced to a signature.

    Loss and duplication draw one coin per *frame*; the signature pins
    the whole observable outcome (virtual clock, wire stats, applied
    watermarks) so two runs of the same seed must match byte-for-byte.
    """
    sim = Simulator(seed=seed)
    network = Network(
        sim, latency=2.0, loss_probability=0.05, duplication_probability=0.02
    )
    pair = MasterSlaveGroup(
        sim,
        network,
        "primary",
        ["backup"],
        ship_interval=5.0,
        batching=BatchPolicy(max_batch=64, flush_interval=2.0),
    )
    for index in range(400):
        sim.schedule_at(
            0.5 * index,
            lambda i=index: pair.write_delta(
                "acct", f"a{i % ENTITIES}", Delta.add("f0", 1)
            ),
            label="det-write",
        )
    sim.run(until=400.0)
    stats = network.stats
    return {
        "now": sim.now,
        "sent": stats.sent,
        "frames": stats.frames,
        "frame_payloads": stats.frame_payloads,
        "delivered": stats.delivered,
        "dropped_loss": stats.dropped_loss,
        "duplicated": stats.duplicated,
        "primary_head": pair.master.store.log.head_lsn,
        "backup_vv": pair.slaves["backup"].store.version_vector.to_dict(),
        "lag": pair.replication_lag_events,
    }


def check_determinism() -> bool:
    """Two seeded runs must produce byte-identical signatures."""
    first = json.dumps(determinism_signature(), sort_keys=True)
    second = json.dumps(determinism_signature(), sort_keys=True)
    ok = first == second
    print(f"determinism: {'PASS' if ok else 'FAIL'}")
    if not ok:
        print(f"  run 1: {first}")
        print(f"  run 2: {second}")
    return ok


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #


def collect(quick: bool = False) -> dict[str, Any]:
    """Run every data-plane benchmark and return the metric map."""
    ship_deltas = 5_000 if quick else 50_000
    lag_duration = 100.0 if quick else 400.0
    recovery_lengths = (2_000, 10_000) if quick else (10_000, 100_000)
    slots_count = 20_000 if quick else 200_000

    metrics: dict[str, Any] = {}
    metrics.update(bench_ship(ship_deltas))
    metrics.update(bench_lag(lag_duration))
    metrics.update(bench_recovery(recovery_lengths))
    metrics.update(bench_slots(slots_count))

    unbatched = metrics["ship_throughput_eps_batch_1"]
    metrics["ship_speedup_batch_64"] = (
        metrics["ship_throughput_eps_batch_64"] / unbatched
    )
    metrics["ship_speedup_batch_1024"] = (
        metrics["ship_throughput_eps_batch_1024"] / unbatched
    )
    metrics["wire_message_reduction_batch_64"] = (
        metrics["wire_messages_batch_1"] / metrics["wire_messages_batch_64"]
    )
    short, long = recovery_lengths
    metrics["recovery_independence_ratio"] = (
        metrics[f"checkpoint_recovery_ms_{long}"]
        / metrics[f"checkpoint_recovery_ms_{short}"]
    )
    metrics["full_replay_ratio"] = (
        metrics[f"full_replay_ms_{long}"] / metrics[f"full_replay_ms_{short}"]
    )
    metrics["event_bytes_saved_ratio"] = (
        metrics["event_bytes_dict"] / metrics["event_bytes_slots"]
    )
    metrics["_sizes"] = {
        "ship_events": ENTITIES + ship_deltas,
        "lag_duration": lag_duration,
        "recovery_lengths": list(recovery_lengths),
        "slots_count": slots_count,
    }
    return metrics


def sweep(quick: bool = False) -> ExperimentReport:
    """Report view, consistent with the E-suite artefacts."""
    metrics = collect(quick=quick)
    report = ExperimentReport(
        experiment_id="DP",
        title="batched data plane: frame shipping, checkpoints, recovery",
        claim=(
            "shipping LSN-contiguous frames amortises per-message costs "
            "(>=5x throughput, >=10x fewer wire messages at frame 64) and "
            "rollup checkpoints make cold recovery O(delta), independent "
            "of log length"
        ),
        headers=["metric", "value"],
        notes=(
            "events/sec for throughputs, milliseconds for recovery, "
            "bytes/event for footprints; *_batch_N keys name frame size"
        ),
    )
    for key in (
        "ship_throughput_eps_batch_1",
        "ship_throughput_eps_batch_64",
        "ship_throughput_eps_batch_1024",
        "ship_speedup_batch_64",
        "wire_messages_batch_1",
        "wire_messages_batch_64",
        "wire_message_reduction_batch_64",
        "mean_lag_events_batch_1",
        "mean_lag_events_batch_64",
        "recovery_independence_ratio",
        "full_replay_ratio",
        "event_bytes_slots",
        "event_bytes_dict",
    ):
        report.add_row(key, metrics[key])
    return report


def test_recovery_is_delta_bound(benchmark):
    """Checkpointed recovery replays the delta, not the log (perf smoke)."""
    store = LSDBStore()
    manager = store.enable_checkpoints(CheckpointPolicy(every_events=500))
    populate(store, 4_000)
    report = benchmark(lambda: store.recover())
    assert report.used_checkpoint
    assert report.events_replayed <= 500
    assert manager.latest() is not None


def trajectory(metrics: dict[str, Any]) -> dict[str, Any]:
    """The before/after/speedup artefact ``tests/test_claims.py`` validates.

    *Before* is the unbatched / full-replay / ``__dict__`` data plane;
    *after* is frame-64 shipping, checkpointed recovery and the slotted
    event record.
    """
    short, long = metrics["_sizes"]["recovery_lengths"]
    return {
        "benchmark": "bench_dataplane",
        "description": (
            "Data-plane measurements before/after PR 5 (frame shipping, "
            "rollup checkpoints, slotted events). Throughputs are "
            "events/sec (higher is better); *_ms are milliseconds and "
            "event_bytes are bytes/event (lower is better). "
            "recovery_independence_ratio is checkpointed recovery time "
            "at the long log over the short log - near 1.0 means "
            "recovery cost is O(delta), independent of log length. "
            "event_create_eps compares construction rates at the same "
            "event count (context, not a gate): the slotted record "
            "constructs slower than the __dict__ baseline - it trades "
            "construction speed for footprint, and the columnar arena "
            "(BENCH_columnar.json) is what wins creation throughput."
        ),
        "sizes": dict(metrics["_sizes"]),
        "before": {
            "ship_throughput_eps": metrics["ship_throughput_eps_batch_1"],
            "wire_messages": metrics["wire_messages_batch_1"],
            "mean_lag_events": metrics["mean_lag_events_batch_1"],
            f"recovery_ms_{short}": metrics[f"full_replay_ms_{short}"],
            f"recovery_ms_{long}": metrics[f"full_replay_ms_{long}"],
            "recovery_length_ratio": metrics["full_replay_ratio"],
            "event_bytes": metrics["event_bytes_dict"],
            "event_create_eps": metrics["event_create_eps_dict"],
        },
        "after": {
            "ship_throughput_eps": metrics["ship_throughput_eps_batch_64"],
            "ship_throughput_eps_batch_1024":
                metrics["ship_throughput_eps_batch_1024"],
            "wire_messages": metrics["wire_messages_batch_64"],
            "mean_lag_events": metrics["mean_lag_events_batch_64"],
            f"recovery_ms_{short}": metrics[f"checkpoint_recovery_ms_{short}"],
            f"recovery_ms_{long}": metrics[f"checkpoint_recovery_ms_{long}"],
            "recovery_length_ratio": metrics["recovery_independence_ratio"],
            "event_bytes": metrics["event_bytes_slots"],
            "event_create_eps": metrics["event_create_eps"],
            "event_with_lsn_eps": metrics["event_with_lsn_eps"],
        },
        "speedup": {
            "ship_throughput_eps": round(metrics["ship_speedup_batch_64"], 2),
            "wire_message_reduction": round(
                metrics["wire_message_reduction_batch_64"], 2
            ),
            "recovery_independence_ratio": round(
                metrics["recovery_independence_ratio"], 3
            ),
            "recovery_vs_full_replay": round(
                metrics[f"full_replay_ms_{long}"]
                / metrics[f"checkpoint_recovery_ms_{long}"],
                2,
            ),
            "event_bytes": round(metrics["event_bytes_saved_ratio"], 3),
            "event_create_eps": round(
                metrics["event_create_eps"] / metrics["event_create_eps_dict"], 3
            ),
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small CI sizes")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run the lossy batched scenario twice and "
                             "compare signatures")
    parser.add_argument("--json-out", type=str, default="", metavar="PATH",
                        help="write raw metrics as JSON to PATH")
    parser.add_argument("--trajectory-out", type=str, default="", metavar="PATH",
                        help="write the before/after/speedup artefact "
                             "(BENCH_dataplane.json) to PATH")
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
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    if args.trajectory_out:
        pathlib.Path(args.trajectory_out).write_text(
            json.dumps(trajectory(metrics), indent=2) + "\n", encoding="utf-8"
        )
    for key, value in sorted(metrics.items()):
        if key.startswith("_"):
            continue
        print(f"{key:36s} {value}")


if __name__ == "__main__":
    main()
