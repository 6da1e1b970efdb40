"""Quorum replication — strong consistency, at availability's expense.

The "replication with strong consistency" scheme from the paper's
section 2 preamble.  A write succeeds only when ``write_quorum``
replicas acknowledge; a read consults ``read_quorum`` replicas and keeps
the freshest value.  With ``W + R > N`` reads observe the latest
committed write — but any operation that cannot reach its quorum
*fails* rather than proceeding on local data, which is exactly the
availability sacrifice CAP forces and experiment E1 quantifies against
the active/active group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.core.consistency import ConsistencyLevel
from repro.core.policy import Deadline, RetryPolicy, TimeoutPolicy
from repro.core.readpath import (
    ConsistencyUnavailable,
    ReadRequest,
    ReadResult,
    ReadSurface,
    Served,
    replica_level,
)
from repro.errors import QuorumUnavailable, RetryExhausted
from repro.replication.replica import ReplicaNode, lag_behind_peers
from repro.sim.network import Network, Node
from repro.sim.scheduler import Simulator


@dataclass
class QuorumOutcome:
    """Result of one quorum operation."""

    request_id: str
    kind: str  # "write" | "read"
    ok: bool
    submitted_at: float
    finished_at: float
    responses: int = 0
    value: Optional[dict[str, Any]] = None
    attempts: int = 1
    error: Optional[Exception] = None  # why a failed op gave up

    @property
    def latency(self) -> float:
        """Time from submission to quorum (or timeout)."""
        return self.finished_at - self.submitted_at


@dataclass
class _PendingRequest:
    outcome: QuorumOutcome
    needed: int
    on_done: Callable[[QuorumOutcome], None]
    message: dict[str, Any] = field(default_factory=dict)
    deadline: Deadline = field(default_factory=Deadline)
    best_timestamp: float = -1.0
    timeout_handle: Any = None
    done: bool = False
    entity_type: str = ""
    entity_key: str = ""
    stale_repliers: list[str] = field(default_factory=list)
    replier_timestamps: dict[str, float] = field(default_factory=dict)


class _QuorumReplica(ReplicaNode):
    """Replica answering versioned read/write requests."""

    def handle_extra_message(self, source: str, message: Mapping[str, Any]) -> None:
        kind = message.get("type")
        if kind == "q-write":
            self.store.set_fields(
                message["entity_type"],
                message["entity_key"],
                dict(message["fields"]),
                tx_id=message.get("request_id", ""),
            )
            self.send(
                source, {"type": "q-write-ack", "request_id": message["request_id"]}
            )
        elif kind == "q-read":
            state = self.store.get(message["entity_type"], message["entity_key"])
            self.send(
                source,
                {
                    "type": "q-read-reply",
                    "request_id": message["request_id"],
                    "fields": dict(state.fields) if state else None,
                    "timestamp": state.last_timestamp if state else -1.0,
                },
            )
        elif kind == "q-repair":
            # Read repair: accept only if we are genuinely behind.  The
            # repair event carries the winning value's *original*
            # timestamp — re-stamping it with local time would make the
            # repaired replica look newer than the replicas that wrote
            # the value, and every subsequent read would "repair" them
            # in turn (ping-pong).
            state = self.store.get(message["entity_type"], message["entity_key"])
            local_timestamp = state.last_timestamp if state else -1.0
            if local_timestamp < message.get("timestamp", -1.0):
                from repro.lsdb.events import EventKind, LogEvent

                self.store.log.append(
                    LogEvent(
                        lsn=0,
                        timestamp=float(message["timestamp"]),
                        entity_type=message["entity_type"],
                        entity_key=message["entity_key"],
                        kind=EventKind.SET_FIELDS,
                        payload=dict(message["fields"]),
                        origin="read-repair",
                        origin_seq=0,
                        tx_id=message.get("request_id", ""),
                        tags=frozenset({"read-repair"}),
                    )
                )


class QuorumCoordinator(Node):
    """Client-facing coordinator for quorum reads and writes."""

    def __init__(
        self,
        node_id: str,
        group: "QuorumGroup",
    ):
        super().__init__(node_id)
        self.group = group
        self._pending: dict[str, _PendingRequest] = {}

    def handle_message(self, source: str, message: Mapping[str, Any]) -> None:
        request_id = message.get("request_id", "")
        pending = self._pending.get(request_id)
        if pending is None or pending.done:
            return
        kind = message.get("type")
        if kind == "q-write-ack":
            pending.outcome.responses += 1
        elif kind == "q-read-reply":
            pending.outcome.responses += 1
            timestamp = message.get("timestamp", -1.0)
            pending.replier_timestamps[source] = timestamp
            if message.get("fields") is not None and timestamp > pending.best_timestamp:
                pending.best_timestamp = timestamp
                pending.outcome.value = dict(message["fields"])
        if pending.outcome.responses >= pending.needed:
            if pending.outcome.kind == "read":
                self._read_repair(pending)
            self._finish(pending, ok=True)

    def _read_repair(self, pending: _PendingRequest) -> None:
        """Write the freshest value back to repliers that returned stale
        (or missing) data — the classic read-repair of Dynamo-style
        systems, keeping quorum overlap effective over time."""
        if pending.outcome.value is None or not self.group.read_repair:
            return
        for replica_id, timestamp in pending.replier_timestamps.items():
            if timestamp < pending.best_timestamp:
                pending.stale_repliers.append(replica_id)
                self.send(
                    replica_id,
                    {
                        "type": "q-repair",
                        "request_id": pending.outcome.request_id,
                        "entity_type": pending.entity_type,
                        "entity_key": pending.entity_key,
                        "fields": dict(pending.outcome.value),
                        "timestamp": pending.best_timestamp,
                    },
                )
                self.group.read_repairs_sent += 1
                if self.group._m_repairs is not None:
                    self.group._m_repairs.inc()

    def _finish(self, pending: _PendingRequest, ok: bool) -> None:
        if pending.done:
            return
        pending.done = True
        if pending.timeout_handle is not None:
            pending.timeout_handle.cancel()
        pending.outcome.ok = ok
        pending.outcome.finished_at = self.group.sim.now
        self.group.outcomes.append(pending.outcome)
        counter = self.group._m_ops.get((pending.outcome.kind, ok))
        if counter is not None:
            counter.inc()
        del self._pending[pending.outcome.request_id]
        pending.on_done(pending.outcome)

    def start(
        self,
        kind: str,
        needed: int,
        payload: dict[str, Any],
        on_done: Callable[[QuorumOutcome], None],
    ) -> str:
        group = self.group
        request_id = f"q-{next(group.request_counter)}"
        outcome = QuorumOutcome(
            request_id=request_id,
            kind=kind,
            ok=False,
            submitted_at=group.sim.now,
            finished_at=group.sim.now,
        )
        message = dict(payload)
        message["request_id"] = request_id
        message["type"] = "q-write" if kind == "write" else "q-read"
        pending = _PendingRequest(
            outcome=outcome,
            needed=needed,
            on_done=on_done,
            message=message,
            deadline=group.timeout_policy.start(group.sim.now),
            entity_type=str(payload.get("entity_type", "")),
            entity_key=str(payload.get("entity_key", "")),
        )
        self._pending[request_id] = pending
        self._attempt(pending)
        return request_id

    def _attempt(self, pending: _PendingRequest) -> None:
        """Send (or re-send) the request to every replica.  Replies keep
        the same request id, so late responses from earlier attempts
        still count toward the quorum."""
        group = self.group
        wait = group.timeout_policy.attempt_timeout(pending.deadline, group.sim.now)
        if wait is not None:
            pending.timeout_handle = group.sim.schedule(
                wait,
                lambda: self._on_attempt_timeout(pending),
                label=f"quorum-timeout:{pending.outcome.request_id}",
            )
        for replica in group.replicas:
            self.send(replica.node_id, pending.message)

    def _on_attempt_timeout(self, pending: _PendingRequest) -> None:
        if pending.done:
            return
        group = self.group
        now = group.sim.now
        attempts = pending.outcome.attempts
        if pending.deadline.remaining(now) <= 0:
            pending.outcome.error = QuorumUnavailable(
                f"quorum {pending.outcome.kind} missed its overall deadline "
                f"after {attempts} attempt(s)",
                deadline=pending.deadline.at or 0.0,
                now=now,
            )
            self._finish(pending, ok=False)
        elif not group.retry_policy.allows_retry(attempts):
            if attempts == 1:
                # Never retried: this is a plain quorum timeout, the
                # pre-policy behaviour.
                pending.outcome.error = QuorumUnavailable(
                    f"quorum {pending.outcome.kind} timed out", now=now
                )
            else:
                pending.outcome.error = RetryExhausted(
                    f"quorum {pending.outcome.kind} gave up after "
                    f"{attempts} attempts",
                    attempts=attempts,
                )
            self._finish(pending, ok=False)
        else:
            delay = group.retry_policy.delay(attempts, group._rng)
            pending.outcome.attempts += 1
            group.retries += 1
            if group._m_retries is not None:
                group._m_retries.inc()
            group.sim.schedule(
                delay,
                lambda: None if pending.done else self._attempt(pending),
                label=f"quorum-retry:{pending.outcome.request_id}",
            )


class QuorumGroup(ReadSurface):
    """N replicas with R/W quorum operations.

    Args:
        sim: The simulator.
        network: The network.
        replica_ids: Replica names (``N = len(replica_ids)``).
        write_quorum: Acks required for a write (``W``).
        read_quorum: Replies required for a read (``R``).
        timeout: A :class:`~repro.core.policy.TimeoutPolicy` — the
            per-attempt limit is the classic "no quorum" signal, the
            overall limit bounds the operation across retries; a bare
            number is a :class:`TypeError`.
        retry: A :class:`~repro.core.policy.RetryPolicy` re-issuing the
            request to all replicas after a per-attempt timeout (late
            replies from earlier attempts still count).  Default: no
            retries, the pre-policy behaviour.
    """

    #: The historical single-knob timeout.
    DEFAULT_TIMEOUT = TimeoutPolicy(per_attempt=100.0)
    #: Not STRONG: a quorum answer arrives later, through :meth:`read`.
    levels = (ConsistencyLevel.BOUNDED_STALENESS, ConsistencyLevel.EVENTUAL)

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        replica_ids: list[str],
        write_quorum: Optional[int] = None,
        read_quorum: Optional[int] = None,
        timeout: Optional[TimeoutPolicy] = None,
        coordinator_id: str = "quorum-coordinator",
        read_repair: bool = True,
        retry: Optional[RetryPolicy] = None,
    ):
        count = len(replica_ids)
        if count < 1:
            raise ValueError("quorum group needs at least one replica")
        self.sim = sim
        self.metrics = sim.metrics
        self.network = network
        self.write_quorum = write_quorum or count // 2 + 1
        self.read_quorum = read_quorum or count // 2 + 1
        if self.write_quorum > count or self.read_quorum > count:
            raise ValueError("quorum larger than replica count")
        if timeout is None:
            self.timeout_policy = self.DEFAULT_TIMEOUT
        elif isinstance(timeout, TimeoutPolicy):
            self.timeout_policy = timeout
        else:
            raise TypeError(
                "QuorumGroup(timeout=...) takes a TimeoutPolicy, got "
                f"{timeout!r}; pass timeout=TimeoutPolicy(per_attempt=...)"
            )
        self.retry_policy = retry if retry is not None else RetryPolicy.none()
        self.retries = 0
        self._rng = sim.fork_rng()
        self.replicas = [
            network.register(_QuorumReplica(replica_id, sim))
            for replica_id in replica_ids
        ]
        self.coordinator = network.register(QuorumCoordinator(coordinator_id, self))
        self.outcomes: list[QuorumOutcome] = []
        self.request_counter = itertools.count(1)
        self.read_repair = read_repair
        self.read_repairs_sent = 0
        if sim.metrics is not None:
            counter = sim.metrics.counter
            self._m_ops = {
                ("write", True): counter("quorum.ops", kind="write", result="ok"),
                ("write", False): counter("quorum.ops", kind="write", result="failed"),
                ("read", True): counter("quorum.ops", kind="read", result="ok"),
                ("read", False): counter("quorum.ops", kind="read", result="failed"),
            }
            self._m_repairs = counter("quorum.read_repairs")
            self._m_retries = counter("quorum.retries")
        else:
            self._m_ops = {}
            self._m_repairs = None
            self._m_retries = None

    def write(
        self,
        entity_type: str,
        entity_key: str,
        fields: dict[str, Any],
        on_done: Optional[Callable[[QuorumOutcome], None]] = None,
    ) -> str:
        """Quorum write; outcome delivered via callback and
        :attr:`outcomes`."""
        return self.coordinator.start(
            "write",
            self.write_quorum,
            {
                "entity_type": entity_type,
                "entity_key": entity_key,
                "fields": dict(fields),
            },
            on_done or (lambda _outcome: None),
        )

    def serve(
        self,
        entity_type: str,
        entity_key: str,
        level: ConsistencyLevel,
        *,
        site: Optional[str] = None,
    ) -> Served:
        """The read protocol's primitive (see :mod:`repro.core.readpath`).

        Anything weaker than ``STRONG`` is the consistency downgrade:
        skip the quorum entirely and serve one replica's local state
        right now, with measured staleness — the cheap rung the front
        door degrades to when the quorum is slow or unreachable.

        Raises:
            ConsistencyUnavailable: ``STRONG`` — a quorum answer arrives
                later and ``serve`` answers now; :meth:`read` is the
                strong path, and :attr:`levels` does not declare it.
        """
        if level is ConsistencyLevel.STRONG:
            raise ConsistencyUnavailable(
                "a quorum read completes later; QuorumGroup.read returns "
                "the pending result"
            )
        serving = self.replicas[0]
        return (
            serving.store.get(entity_type, entity_key),
            replica_level(level),
            lag_behind_peers(serving, self.replicas),
            serving.node_id,
            "",
        )

    def read(
        self,
        entity_type: str,
        entity_key: str,
        on_done: Optional[Callable[[QuorumOutcome], None]] = None,
        *,
        request: Optional[ReadRequest] = None,
        site: Optional[str] = None,
    ) -> ReadResult:
        """Quorum read; the freshest replica value wins.

        A ``STRONG`` request (the default) starts the quorum read and
        returns a :class:`~repro.core.readpath.ReadResult` immediately;
        the result is *pending* (``delivered_level`` is ``None``) and
        is completed in place — ``value`` (the winning fields dict),
        delivered level, or a ``quorum_unavailable`` rejection — once
        the simulator delivers the quorum, at which point ``on_done``
        fires with the :class:`QuorumOutcome`.  Anything weaker is the
        shared :meth:`~repro.core.readpath.ReadSurface.read` over
        :meth:`serve`.
        """
        if request is None:
            request = ReadRequest()
        if request.level is not ConsistencyLevel.STRONG:
            return super().read(entity_type, entity_key, request=request, site=site)
        result = ReadResult(
            None,
            requested_level=request.level,
            delivered_level=None,
            staleness=None,
        )

        def _complete(outcome: QuorumOutcome) -> None:
            result.value = outcome.value
            if outcome.ok:
                result.delivered_level = ConsistencyLevel.STRONG
                result.staleness = 0.0
            else:
                result.rejected = True
                result.reject_reason = "quorum_unavailable"
            if on_done is not None:
                on_done(outcome)

        self.coordinator.start(
            "read",
            self.read_quorum,
            {"entity_type": entity_type, "entity_key": entity_key},
            _complete,
        )
        return result

    @property
    def failure_rate(self) -> float:
        """Fraction of finished operations that missed their quorum."""
        if not self.outcomes:
            return 0.0
        failed = sum(1 for outcome in self.outcomes if not outcome.ok)
        return failed / len(self.outcomes)
