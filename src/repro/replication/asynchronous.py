"""Active system with asynchronous commits to a backup.

One of the four replication schemes the paper's section 2 preamble
names.  The primary acknowledges a write as soon as its *local* commit
completes; a shipper forwards the log tail to the backup on an interval.
Users get the fastest possible response time, and the price is a
potential **lost tail** on failover: committed-and-acknowledged
transactions the backup never received (the apology case of
principle 2.9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.lsdb.events import EventKind, LogEvent
from repro.merge.deltas import Delta
from repro.replication.batching import BatchPolicy
from repro.replication.replica import PrimaryCopySurface, ReplicaNode
from repro.sim.network import Network
from repro.sim.scheduler import Simulator

#: Shipping cadence used when the caller does not pick one.
DEFAULT_SHIP_INTERVAL = 10.0


def resolve_batching(
    ship_interval: Optional[float],
    batching: Optional[BatchPolicy],
    scheme: str,
) -> tuple[float, BatchPolicy]:
    """Shared constructor shim for the interval-shipping schemes.

    The signature is ``batching=BatchPolicy(...)`` plus an optional
    explicit ``ship_interval``.  The legacy ``ship_interval``-only form
    — deprecated since PR 5 — has completed its cycle and is now an
    error: a shipping cadence without a frame policy raises
    :class:`TypeError` (pass ``batching=BatchPolicy()`` explicitly for
    the unbatched one-event-per-frame wire behaviour).
    """
    if batching is None:
        if ship_interval is not None:
            raise TypeError(
                f"{scheme}(ship_interval=...) without batching= was "
                "deprecated in PR 5 and has been removed; pass "
                "batching=BatchPolicy() for the unbatched "
                "one-event-per-frame wire behaviour, or "
                "BatchPolicy(max_batch=...) to choose a frame size"
            )
        batching = BatchPolicy()
    return (
        DEFAULT_SHIP_INTERVAL if ship_interval is None else ship_interval,
        batching,
    )


@dataclass
class FailoverReport:
    """What a failover cost."""

    at: float
    lost_events: int
    lost_tx_ids: list[str]


class AsyncPrimaryBackup(PrimaryCopySurface):
    """Primary/backup replication with asynchronous log shipping.

    Args:
        sim: The simulator.
        network: The network both nodes attach to.
        ship_interval: Virtual time between shipping rounds.  Passing
            it *without* ``batching`` is a :class:`TypeError` — a
            cadence needs a frame policy (``BatchPolicy()`` keeps the
            unbatched one-event-per-frame wire behaviour).
        primary_id: Node id of the primary.
        backup_id: Node id of the backup.
        batching: Frame policy for the shipper — a backlog of N events
            ships as ``ceil(N / max_batch)`` wire frames instead of N
            messages.

    Example:
        >>> from repro.replication.batching import BatchPolicy
        >>> sim = Simulator(); net = Network(sim, latency=5.0)
        >>> pair = AsyncPrimaryBackup(
        ...     sim, net, ship_interval=10.0, batching=BatchPolicy(max_batch=64))
        >>> _ = pair.write_insert("order", "o1", {"total": 9})
        >>> _ = sim.run(until=20.0)
        >>> pair.backup.store.get("order", "o1").fields["total"]
        9
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        ship_interval: Optional[float] = None,
        primary_id: str = "primary",
        backup_id: str = "backup",
        *,
        batching: Optional[BatchPolicy] = None,
    ):
        self.sim = sim
        self.metrics = sim.metrics
        self.network = network
        self.ship_interval, self.batching = resolve_batching(
            ship_interval, batching, "AsyncPrimaryBackup"
        )
        self.primary = ReplicaNode(primary_id, sim, batching=self.batching)
        self.backup = ReplicaNode(backup_id, sim, batching=self.batching)
        network.register(self.primary)
        network.register(self.backup)
        self._active = True
        self.failovers: list[FailoverReport] = []
        self._g_lag = (
            sim.metrics.gauge(
                "replication.lag_events", scheme="async", backup=backup_id
            )
            if sim.metrics is not None
            else None
        )
        self._schedule_shipping()

    # ------------------------------------------------------------------ #
    # Client API: writes ack immediately after the local commit
    # ------------------------------------------------------------------ #

    def write_insert(
        self, entity_type: str, entity_key: str, fields: dict[str, Any], tx_id: str = ""
    ) -> float:
        """Insert at the primary; returns the (immediate) ack time."""
        self.primary.store.append_local(
            entity_type, entity_key, EventKind.INSERT, dict(fields), tx_id
        )
        return self.sim.now

    def write_delta(
        self, entity_type: str, entity_key: str, delta: Delta, tx_id: str = ""
    ) -> float:
        """Apply a delta at the primary; returns the (immediate) ack time."""
        self.primary.store.append_local(
            entity_type, entity_key, EventKind.DELTA, delta.to_payload(), tx_id
        )
        return self.sim.now

    def _read_nodes(self) -> tuple[ReplicaNode, ReplicaNode]:
        # The backup lags the primary by up to one shipping interval.
        return self.primary, self.backup

    # ------------------------------------------------------------------ #
    # Shipping loop
    # ------------------------------------------------------------------ #

    def _schedule_shipping(self) -> None:
        self.sim.schedule(self.ship_interval, self._ship_round, label="async-ship")

    def _ship_round(self) -> None:
        if not self._active:
            return
        if not self.primary.crashed:
            self.primary.ship_backlog(self.backup.node_id)
            self.backup.probe(self.primary.node_id)  # the repair path
        if self._g_lag is not None:
            self._g_lag.set(self.replication_lag_events)
        self._schedule_shipping()

    # ------------------------------------------------------------------ #
    # Failover
    # ------------------------------------------------------------------ #

    def lost_tail(self) -> list[LogEvent]:
        """Primary events the backup has not applied (what a failover
        right now would lose)."""
        applied = self.backup.store.version_vector.get(self.primary.node_id)
        return self.primary.store.events_from_origin(self.primary.node_id, applied)

    def failover(self) -> FailoverReport:
        """Promote the backup; report the acknowledged-but-lost tail.

        The lost transactions are exactly the ones that will need
        apologies (principle 2.9): the user was told "committed", and
        the surviving replica has no record of it.
        """
        lost = self.lost_tail()
        report = FailoverReport(
            at=self.sim.now,
            lost_events=len(lost),
            lost_tx_ids=sorted({event.tx_id for event in lost if event.tx_id}),
        )
        self.failovers.append(report)
        self.primary.crash()
        self._active = False
        return report

    @property
    def replication_lag_events(self) -> int:
        """Events at the primary not yet applied at the backup.

        Counted via the indexed per-origin feed — no event list is
        materialised, so lag probes are cheap enough to run per tick.
        """
        applied = self.backup.store.version_vector.get(self.primary.node_id)
        return self.primary.store.count_from_origin(self.primary.node_id, applied)
