"""Active system with synchronous commits to a backup.

The strong-durability counterpart of
:mod:`repro.replication.master_slave`: the primary does not acknowledge
a write until the backup confirms it has the events.  Nothing is lost on
failover — and the user's response time now includes a network round
trip, and writes become *unavailable* whenever the backup is unreachable
(the CAP tradeoff, measured in experiments E1 and E2; see also paper
section 3.2: "response time for users may degrade ... when a backup
system must receive transaction records before a transaction commits").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.core.policy import RetryPolicy, TimeoutPolicy
from repro.errors import DeadlineExceeded, RetryExhausted
from repro.lsdb.events import LogEvent
from repro.merge.deltas import Delta
from repro.replication.replica import PrimaryCopySurface, ReplicaNode
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


@dataclass
class SyncWriteResult:
    """Outcome of one synchronous write."""

    tx_id: str
    ok: bool
    submitted_at: float
    acked_at: float
    attempts: int = 1
    error: Optional[Exception] = None  # why a failed write gave up

    @property
    def latency(self) -> float:
        """User-visible response time."""
        return self.acked_at - self.submitted_at


class _SyncPrimary(ReplicaNode):
    """Primary that tracks acknowledgements from the backup."""

    def __init__(self, node_id: str, sim: Simulator):
        super().__init__(node_id, sim)
        self.pending: dict[str, Callable[[], None]] = {}

    def handle_extra_message(self, source: str, message: Mapping[str, Any]) -> None:
        if message.get("type") == "replication-ack":
            callback = self.pending.pop(message.get("tx", ""), None)
            if callback is not None:
                callback()


class _SyncBackup(ReplicaNode):
    """Backup that acknowledges every replicated batch."""

    def handle_extra_message(self, source: str, message: Mapping[str, Any]) -> None:
        if message.get("type") == "replicate":
            for event in message.get("events", ()):
                self.store.apply_remote(event)
            self.send(source, {"type": "replication-ack", "tx": message.get("tx")})


class SyncPrimaryBackup(PrimaryCopySurface):
    """Primary/backup replication with commit-time acknowledgement.

    Args:
        sim: The simulator.
        network: The network both nodes attach to.
        timeout: A :class:`~repro.core.policy.TimeoutPolicy` — each
            replication attempt may wait ``per_attempt`` for the
            backup's ack, and the whole write is bounded by ``overall``.
        retry: A :class:`~repro.core.policy.RetryPolicy` re-shipping the
            transaction's events after an ack timeout (the backup's
            apply is idempotent, so re-shipping is safe).  Default: no
            retries, the pre-policy behaviour.
    """

    #: The historical single-knob ack timeout.
    DEFAULT_TIMEOUT = TimeoutPolicy(per_attempt=100.0)

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        primary_id: str = "sync-primary",
        backup_id: str = "sync-backup",
        timeout: Optional[TimeoutPolicy] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.sim = sim
        self.metrics = sim.metrics
        self.network = network
        self.timeout_policy = timeout if timeout is not None else self.DEFAULT_TIMEOUT
        self.retry_policy = retry if retry is not None else RetryPolicy.none()
        self.retries = 0
        self._rng = sim.fork_rng()
        self._m_retries = (
            sim.metrics.counter("sync.retries") if sim.metrics is not None else None
        )
        self._m_giveup = (
            sim.metrics.counter("sync.giveup") if sim.metrics is not None else None
        )
        self.primary = _SyncPrimary(primary_id, sim)
        self.backup = _SyncBackup(backup_id, sim)
        network.register(self.primary)
        network.register(self.backup)
        self.results: list[SyncWriteResult] = []
        self._tx_counter = itertools.count(1)

    def write_insert(
        self,
        entity_type: str,
        entity_key: str,
        fields: dict[str, Any],
        on_done: Optional[Callable[[SyncWriteResult], None]] = None,
    ) -> str:
        """Insert with synchronous replication.

        Returns the transaction id immediately; the commit outcome
        arrives via ``on_done`` (and :attr:`results`) once the backup
        acknowledges or the timeout fires.
        """
        event = lambda tx_id: self.primary.store.insert(
            entity_type, entity_key, fields, tx_id=tx_id
        )
        return self._write(event, on_done)

    def write_delta(
        self,
        entity_type: str,
        entity_key: str,
        delta: Delta,
        on_done: Optional[Callable[[SyncWriteResult], None]] = None,
    ) -> str:
        """Apply a delta with synchronous replication."""
        event = lambda tx_id: self.primary.store.apply_delta(
            entity_type, entity_key, delta, tx_id=tx_id
        )
        return self._write(event, on_done)

    def _read_nodes(self) -> tuple[ReplicaNode, ReplicaNode]:
        # Both hold every acknowledged write, but the backup can be
        # mid-flight on an unacknowledged one: its staleness is
        # measured, not assumed zero.
        return self.primary, self.backup

    def _write(
        self,
        append_local: Callable[[str], LogEvent],
        on_done: Optional[Callable[[SyncWriteResult], None]],
    ) -> str:
        tx_id = f"sync-{next(self._tx_counter)}"
        submitted_at = self.sim.now
        stored = append_local(tx_id)
        state = {"done": False, "attempts": 1}
        deadline = self.timeout_policy.start(submitted_at)

        def finish(ok: bool, error: Optional[Exception] = None) -> None:
            if state["done"]:
                return
            state["done"] = True
            result = SyncWriteResult(
                tx_id=tx_id, ok=ok, submitted_at=submitted_at,
                acked_at=self.sim.now, attempts=state["attempts"], error=error,
            )
            self.results.append(result)
            if not ok and self._m_giveup is not None:
                self._m_giveup.inc()
            if on_done is not None:
                on_done(result)

        def attempt() -> None:
            if state["done"]:
                return
            wait = self.timeout_policy.attempt_timeout(deadline, self.sim.now)
            if wait is not None:
                self.sim.schedule(
                    wait, on_timeout, label=f"sync-timeout:{tx_id}"
                )
            # A transaction's events are LSN-contiguous by construction,
            # so each replicate shipment is one wire frame: loss and
            # duplication hit the whole transaction, never half of it.
            self.primary.send_batch(
                self.backup.node_id,
                [{"type": "replicate", "tx": tx_id, "events": [stored]}],
                size=1,
            )

        def on_timeout() -> None:
            if state["done"]:
                return
            now = self.sim.now
            attempts = state["attempts"]
            if deadline.remaining(now) <= 0:
                finish(False, DeadlineExceeded(
                    f"sync write {tx_id} missed its overall deadline",
                    deadline=deadline.at or 0.0, now=now,
                ))
            elif not self.retry_policy.allows_retry(attempts):
                if attempts == 1:
                    finish(False, DeadlineExceeded(
                        f"sync write {tx_id} timed out waiting for the backup",
                        now=now,
                    ))
                else:
                    finish(False, RetryExhausted(
                        f"sync write {tx_id} gave up after {attempts} attempts",
                        attempts=attempts,
                    ))
            else:
                delay = self.retry_policy.delay(attempts, self._rng)
                state["attempts"] += 1
                self.retries += 1
                if self._m_retries is not None:
                    self._m_retries.inc()
                self.sim.schedule(delay, attempt, label=f"sync-retry:{tx_id}")

        self.primary.pending[tx_id] = lambda: finish(True)
        attempt()
        return tx_id

    @property
    def failed_writes(self) -> int:
        """Writes that timed out waiting for the backup."""
        return sum(1 for result in self.results if not result.ok)

    @property
    def mean_latency(self) -> float:
        """Mean response time of successful writes."""
        latencies = [result.latency for result in self.results if result.ok]
        return sum(latencies) / len(latencies) if latencies else 0.0
