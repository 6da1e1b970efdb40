"""One measured round: build, schedule, run to convergence, check.

A round is a complete experiment on a fresh cluster.  In wall-clock
terms the driver is a closed loop with one client — one process, one
thread, the next op starts when the previous returns.  In *virtual*
time arrivals are open-loop Poisson: each op fires at its scheduled
instant whatever the system is doing, and message delay is injected by
the simulator.  Wall-clock latencies are therefore CPython interpreter
time only.

The timed section is the whole ``sim.run`` — arrivals plus the drain in
which shipping, apply, extracts and anti-entropy finish — so work a
change pushes into the background still counts against ``ops_per_s``.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Any, Optional

from repro.core.consistency import ConsistencyLevel
from repro.merge.deltas import Delta

from instrument import SELF_TIME_METRIC, Instrumentation, replica_nodes
from spans import SpanRecorder
from stats import percentile_or_none
from workloads import (
    DRAIN,
    ENTITY_TYPE,
    Schedule,
    Workload,
    build_cluster,
    compile_schedule,
)

_LEVEL_KEYS = {
    ConsistencyLevel.STRONG: "strong",
    ConsistencyLevel.BOUNDED_STALENESS: "bounded",
    ConsistencyLevel.EVENTUAL: "eventual",
    ConsistencyLevel.EXTRACT: "eventual",
}


@dataclass
class Round:
    """Everything one round measured.

    ``counts`` holds only seed-deterministic integers read from the
    program's own counters, so it must repeat exactly — between rounds,
    between processes, and between the traced and untraced run.
    """

    setup_s: float
    wall_s: float
    #: Wall nanoseconds of every write / read call, in schedule order.
    #: Rounds of one seed run the same ops in the same order, so sample
    #: ``i`` of every round times the same operation.  Packed arrays: a
    #: round of 60k ops costs half a megabyte to keep.
    write_ns: array
    read_ns: array
    #: p99 of the served reads' staleness in virtual time (``None`` when
    #: the percentile rule refuses).
    staleness_p99: Optional[float]
    counts: dict[str, int]
    digest: str
    #: Failed end-of-run checks, one line each, naming the key/replica.
    failures: list[str] = field(default_factory=list)
    #: What went wrong with failed client ops (they are counted in
    #: ``counts``; these lines only explain them).
    op_failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return self.counts["ops.writes"] + self.counts["ops.reads"]


class _Client:
    """The single closed-loop client walking a schedule.

    Exactly one client op is pending on the simulator at a time: firing
    op ``i`` schedules op ``i + 1`` at its arrival instant.  The heap
    therefore stays as small as the system's own traffic makes it,
    instead of carrying the whole future arrival process.
    """

    def __init__(
        self,
        cluster: Any,
        schedule: Schedule,
        recorder: Optional[SpanRecorder],
    ):
        self.cluster = cluster
        self.schedule = schedule
        self.recorder = recorder
        self.cursor = 0
        self.write_ns = array("q")
        self.read_ns = array("q")
        self.staleness = array("d")
        self.served = {"strong": 0, "bounded": 0, "eventual": 0}
        self.degraded = 0
        self.rejected = 0
        self.bound_violated = 0
        self.write_failures = 0
        self.first_failure = ""
        self._delta = Delta.add("value", 1)
        self._write = self._choose_write()
        self.step = (
            self._step
            if recorder is None
            else recorder.wrap("driver.op", self._traced_step)
        )

    def _choose_write(self):
        cluster = self.cluster
        delta = self._delta
        transactions = cluster.transactions
        if transactions is None:
            scheme = cluster.replication

            def write(key: str) -> bool:
                # Looked up per call: a traced round shadows the method
                # on the instance after this closure is built.
                scheme.write_delta(ENTITY_TYPE, key, delta)
                return True

            return write

        def write(key: str) -> bool:
            tx = transactions.begin()
            tx.apply_delta(ENTITY_TYPE, key, delta)
            return tx.commit().committed

        if self.recorder is not None:
            # A transaction object lives for one op, so there is no
            # instance to wrap: the span goes around begin -> commit.
            return self.recorder.wrap("tx", write)
        return write

    def failure_lines(self) -> list[str]:
        lines = []
        if self.bound_violated:
            lines.append(f"{self.bound_violated} reads served beyond their bound")
        if self.rejected:
            lines.append(f"{self.rejected} reads rejected")
        if self.write_failures:
            lines.append(
                f"{self.write_failures} writes failed, first: {self.first_failure}"
            )
        return lines

    def arm(self) -> None:
        """Schedule the first op (part of set-up)."""
        if self.schedule.at:
            self.cluster.sim.schedule_at(self.schedule.at[0], self.step, "client")

    def _traced_step(self) -> None:
        self.recorder.begin_op(self.cursor)
        try:
            self._step()
        finally:
            self.recorder.end_op()

    def _step(self) -> None:
        schedule = self.schedule
        index = self.cursor
        self.cursor = index + 1
        key = schedule.key[index]
        request = schedule.request[index]
        if request is None:
            start = perf_counter_ns()
            try:
                committed = self._write(key)
            except Exception as error:  # counted, named, run continues
                committed = False
                self.first_failure = self.first_failure or (
                    f"write {key} raised {type(error).__name__}: {error}"
                )
            self.write_ns.append(perf_counter_ns() - start)
            if not committed:
                self.write_failures += 1
                self.first_failure = self.first_failure or f"write {key} aborted"
        else:
            start = perf_counter_ns()
            result = self.cluster.read(ENTITY_TYPE, key, request=request)
            self.read_ns.append(perf_counter_ns() - start)
            if result.rejected:
                self.rejected += 1
            else:
                self.served[_LEVEL_KEYS[result.delivered_level]] += 1
                self.staleness.append(result.staleness)
                if result.degraded:
                    self.degraded += 1
                if result.bound_violated:
                    self.bound_violated += 1
        if self.cursor < len(schedule.at):
            self.cluster.sim.schedule_at(
                schedule.at[self.cursor], self.step, "client"
            )


def run_round(
    workload: Workload,
    seed: int,
    scale: float,
    traced: bool = False,
) -> Round:
    """Build the workload's cluster, drive its schedule, drain, check."""
    setup_start = perf_counter()
    cluster = build_cluster(workload, seed)
    schedule = compile_schedule(workload, seed, scale)
    recorder = SpanRecorder() if traced else None
    client = _Client(cluster, schedule, recorder)
    client.arm()
    setup_s = perf_counter() - setup_start

    instrumentation = None
    if recorder is not None:
        instrumentation = Instrumentation(recorder)
        instrumentation.install(cluster)
    try:
        run_start = perf_counter()
        cluster.sim.run(until=schedule.duration + DRAIN)
        wall_s = perf_counter() - run_start
    finally:
        if instrumentation is not None:
            instrumentation.restore()

    counts = program_counts(cluster, client)
    result = Round(
        setup_s=setup_s,
        wall_s=wall_s,
        write_ns=client.write_ns,
        read_ns=client.read_ns,
        staleness_p99=percentile_or_none(sorted(client.staleness), 0.99),
        counts=counts,
        digest=state_digest(cluster, counts),
        failures=check_state(cluster, schedule, client),
        op_failures=client.failure_lines(),
    )
    if recorder is not None:
        result.layers = layer_metrics(recorder, instrumentation)
        result.spans = recorder.spans
    return result


# ---------------------------------------------------------------------- #
# Correctness oracle
# ---------------------------------------------------------------------- #


def _values(store: Any) -> dict[str, Any]:
    return {
        ref[1]: state.fields.get("value")
        for ref, state in store.states_view().items()
        if ref[0] == ENTITY_TYPE
    }


def check_state(cluster: Any, schedule: Schedule, client: _Client) -> list[str]:
    """Every failed end-of-run check as one line naming the key or
    replica.

    * no acknowledged write lost: each key's ``value`` at its authority
      equals the number of writes the schedule addressed to it;
    * convergence: every replica hosting a key agrees with the key's
      master (master/slave) or with its shard group (geo);
    * the whole schedule ran.
    """
    failures: list[str] = []
    expected: dict[str, int] = {}
    for key, request in zip(schedule.key, schedule.request):
        if request is None:
            expected[key] = expected.get(key, 0) + 1

    scheme = cluster.replication
    if hasattr(scheme, "groups"):
        authority_values: dict[str, Any] = {}
        for shard, members in scheme.groups.items():
            reference = _values(members[0].store)
            authority_values.update(reference)
            for member in members[1:]:
                if _values(member.store) != reference:
                    failures.append(
                        f"replica {member.node_id} disagrees with "
                        f"{members[0].node_id} on shard {shard}"
                    )
    else:
        authority_values = _values(scheme.master.store)
        for slave_id, slave in scheme.slaves.items():
            if _values(slave.store) != authority_values:
                failures.append(f"replica {slave_id} disagrees with master")

    for key, writes in expected.items():
        if authority_values.get(key) != writes:
            failures.append(
                f"key {key}: value {authority_values.get(key)} after {writes} writes"
            )
    for key in authority_values.keys() - expected.keys():
        failures.append(f"key {key}: present but never written")

    if client.cursor != len(schedule.at):
        failures.append(f"only {client.cursor} of {len(schedule.at)} ops ran")
    return failures


def state_digest(cluster: Any, counts: dict[str, int]) -> str:
    """One digest over every replica's final state and every count —
    what a traced run and an untraced run of the same seed must share."""
    hasher = hashlib.sha256()
    for node in replica_nodes(cluster):
        hasher.update(node.node_id.encode())
        hasher.update(repr(sorted(_values(node.store).items())).encode())
    hasher.update(repr(sorted(counts.items())).encode())
    return hasher.hexdigest()[:16]


# ---------------------------------------------------------------------- #
# Counts and per-layer metrics
# ---------------------------------------------------------------------- #


def program_counts(cluster: Any, client: _Client) -> dict[str, int]:
    """Seed-deterministic counts from the program's own counters (no
    tracing needed, so the untraced run has them too)."""
    nodes = replica_nodes(cluster)
    stores = [node.store for node in nodes]
    stats = cluster.network.stats
    caches = cluster.read_caches
    transactions = cluster.transactions
    warehouse = cluster.warehouse
    door = cluster.front_door
    coalescers = [s.coalescer for s in stores if s.coalescer is not None]
    return {
        "ops.writes": len(client.write_ns),
        "ops.reads": len(client.read_ns),
        "reads.degraded": client.degraded,
        "reads.rejected": client.rejected,
        "reads.bound_violated": client.bound_violated,
        "writes.failed": client.write_failures,
        "sim.events": cluster.sim.processed,
        "net.frames": stats.frames,
        "net.events_carried": stats.frame_payloads,
        "net.wan_frames": stats.wan_frames,
        "door.reads": door.reads,
        "door.served_strong": client.served["strong"],
        "door.served_bounded": client.served["bounded"],
        "door.served_eventual": client.served["eventual"],
        "door.degraded": door.degraded_serves,
        "door.rejected": door.rejects,
        "tx.commits": transactions.commits if transactions else 0,
        "tx.aborts": transactions.aborts if transactions else 0,
        "store.local_appends": sum(s.origin_seq for s in stores),
        "store.remote_rows": sum(node.events_received for node in nodes),
        "store.duplicates_dropped": sum(s.duplicates_rejected for s in stores),
        "log.rows_appended": sum(len(s.log.arena) for s in stores),
        "cache.lookups": sum(c.hits + c.misses for c in caches),
        "cache.hits": sum(c.hits for c in caches),
        "cache.evictions": sum(c.evictions for c in caches),
        "cache.coalesce_flushes": sum(c.flushes for c in coalescers),
        "cache.fused_rows": sum(c.fused_rows for c in coalescers),
        "warehouse.extracts": warehouse.extracts_taken if warehouse else 0,
    }


def layer_metrics(
    recorder: SpanRecorder, instrumentation: Instrumentation
) -> dict[str, float]:
    """Per-layer self times, span counts and work units of a traced
    round.  Self times are summed per :data:`SELF_TIME_METRIC`; a span
    name missing from that table is a harness bug, not a rounding error.
    """
    metrics: dict[str, float] = {m: 0.0 for m in SELF_TIME_METRIC.values()}
    for name, seconds in recorder.self_seconds().items():
        metrics[SELF_TIME_METRIC[name]] += seconds
    counts = recorder.counts()
    units = recorder.units()

    def spans_of(*names: str) -> int:
        return sum(counts.get(name, 0) for name in names)

    ship_frames = spans_of("replica.send_batch")
    ship_events = units.get("replica.ship_events", 0)
    metrics.update(
        {
            "store.get_calls": spans_of("store.get", "store.read"),
            "fold.calls": spans_of(
                "fold.fold", "fold.fold_into", "fold.fold_slice_into"
            ),
            "fold.rows": units.get("fold.fold_into", 0)
            + units.get("fold.fold_slice_into", 0),
            "ship.rounds": spans_of("scheme.ship_round"),
            "ship.frames": ship_frames,
            "ship.events": ship_events,
            "ship.events_per_frame": (
                ship_events / ship_frames if ship_frames else 0.0
            ),
            "ship.lag_events_max": instrumentation.lag_events_max,
            "scheme.reads": spans_of("scheme.read"),
            "readpath.delivers": spans_of("readpath.deliver"),
            "trace.spans": sum(counts.values()),
            "trace.entry_points": instrumentation.entry_points,
        }
    )
    return metrics
