"""Master/slave replication — the asynchronous primary-copy scheme.

The paper's section 2 preamble names "active systems with asynchronous
commits to backups": the master acknowledges a write as soon as its
*local* commit completes, and a shipping loop forwards the log tail to
the slaves on an interval.  A primary/backup pair is a group with one
slave.  The price of the fast ack is a potential **lost tail** on
failover — committed-and-acknowledged transactions the follower never
received (the apology case of principle 2.9).

Paper section 3.1: "a master-slave approach where the master copy
handles all updates unapologetically but slaves may have to apologize
and compensate might address needs for variegated consistency
requirements."

The master is the single writer (updates routed elsewhere raise
:class:`~repro.errors.NotMaster`); slaves receive the log asynchronously
and serve reads that are *stale by a measurable lag*.  Decisions taken
against slave data (e.g. accepting an order based on stale stock) are
subjective and may need apologies — experiment E10 wires the bookstore
to slave reads and counts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import NotMaster
from repro.lsdb.events import EventKind, LogEvent
from repro.lsdb.rollup import EntityState
from repro.merge.deltas import Delta
from repro.replication.batching import BatchPolicy
from repro.replication.replica import PrimaryCopySurface, ReplicaNode
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


@dataclass
class FailoverReport:
    """What a failover cost."""

    at: float
    lost_events: int
    lost_tx_ids: list[str]


class MasterSlaveGroup(PrimaryCopySurface):
    """One writable master, one or more read-only slaves.

    With one slave this is the asynchronous primary/backup pair:
    :meth:`failover` promotes the slave and reports the acknowledged
    tail it never received.

    Args:
        sim: The simulator.
        network: The network.
        master_id: Node id of the master.
        slave_ids: Node ids of the slaves.
        ship_interval: Period of the master's log-shipping loop (the
            knob that sets slave staleness).
        batching: Frame policy for the per-slave shippers — a backlog
            of N events ships as ``ceil(N / max_batch)`` wire frames.
            The default ``BatchPolicy()`` ships one event per frame.

    Example:
        >>> from repro.replication.batching import BatchPolicy
        >>> sim = Simulator(); net = Network(sim, latency=2.0)
        >>> group = MasterSlaveGroup(sim, net, "master", ["slave-1"],
        ...                          ship_interval=10.0,
        ...                          batching=BatchPolicy(max_batch=64))
        >>> _ = group.write_insert("stock", "book", {"copies": 5})
        >>> group.read_at("slave-1", "stock", "book") is None   # not shipped yet
        True
        >>> _ = sim.run(until=30.0)
        >>> group.read_at("slave-1", "stock", "book").fields["copies"]
        5
        >>> _ = group.write_insert("stock", "pen", {"copies": 1}, tx_id="t9")
        >>> group.failover().lost_tx_ids   # acknowledged, never shipped
        ['t9']
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        master_id: str = "master",
        slave_ids: Optional[list[str]] = None,
        ship_interval: float = 10.0,
        *,
        batching: Optional[BatchPolicy] = None,
    ):
        self.sim = sim
        self.metrics = sim.metrics
        self.network = network
        self.ship_interval = ship_interval
        self.batching = batching if batching is not None else BatchPolicy()
        self.master = network.register(
            ReplicaNode(master_id, sim, batching=self.batching)
        )
        self.slaves: dict[str, ReplicaNode] = {}
        for slave_id in slave_ids or ["slave"]:
            self.slaves[slave_id] = network.register(
                ReplicaNode(slave_id, sim, batching=self.batching)
            )
        #: The slave typed reads land on (membership is fixed at
        #: construction).
        self._reader = next(iter(self.slaves.values()))
        self.rejected_writes = 0
        self._active = True
        self.failovers: list[FailoverReport] = []
        # Every slave read, typed or node-addressed, records its lag.
        self._h_staleness = self._g_lag = None
        if sim.metrics is not None:
            self._h_staleness = sim.metrics.histogram(
                "read.staleness_events", scheme="master_slave"
            )
            self._g_lag = sim.metrics.gauge(
                "replication.lag_events", scheme="master_slave"
            )
        self._schedule_shipping()

    # ------------------------------------------------------------------ #
    # Writes: master only
    # ------------------------------------------------------------------ #

    def write_insert(
        self, entity_type: str, entity_key: str, fields: dict[str, Any], tx_id: str = ""
    ) -> float:
        """Insert at the master; ack immediate (local commit)."""
        self.master.store.append_local(
            entity_type, entity_key, EventKind.INSERT, dict(fields), tx_id
        )
        return self.sim.now

    def write_delta(
        self, entity_type: str, entity_key: str, delta: Delta, tx_id: str = ""
    ) -> float:
        """Delta at the master; ack immediate."""
        self.master.store.append_local(
            entity_type, entity_key, EventKind.DELTA, delta.to_payload(), tx_id
        )
        return self.sim.now

    def write_at(self, node_id: str, *_args, **_kwargs) -> None:
        """Reject updates addressed to a slave (single-writer discipline).

        Raises:
            NotMaster: Always, unless ``node_id`` is the master.
        """
        if node_id != self.master.node_id:
            self.rejected_writes += 1
            raise NotMaster(f"{node_id!r} does not accept updates")
        raise ValueError("use write_insert/write_delta for master writes")

    # ------------------------------------------------------------------ #
    # Reads: anywhere, with staleness at slaves
    # ------------------------------------------------------------------ #

    def _read_nodes(self) -> tuple[ReplicaNode, ReplicaNode]:
        return self.master, self._reader

    def read_at(
        self, node_id: str, entity_type: str, entity_key: str
    ) -> Optional[EntityState]:
        """The raw state one explicit node holds right now (slave reads
        are recorded in ``read.staleness_events`` like typed ones)."""
        if node_id == self.master.node_id:
            return self.master.store.get(entity_type, entity_key)
        if self._h_staleness is not None:
            self._h_staleness.record(self.slave_lag_events(node_id))
        return self.slaves[node_id].store.get(entity_type, entity_key)

    def slave_lag_events(self, slave_id: str) -> int:
        """Master events not yet applied at ``slave_id``."""
        applied = self.slaves[slave_id].store.version_vector.get(
            self.master.node_id
        )
        return self.master.store.count_from_origin(self.master.node_id, applied)

    @property
    def replication_lag_events(self) -> int:
        """Master events not yet applied at the furthest-behind slave.

        Counted via the indexed per-origin feed — no event list is
        materialised, so lag probes are cheap enough to run per tick.
        """
        return max(map(self.slave_lag_events, self.slaves))

    # ------------------------------------------------------------------ #
    # Shipping loop
    # ------------------------------------------------------------------ #

    def _schedule_shipping(self) -> None:
        self.sim.schedule(self.ship_interval, self._ship_round, label="ms-ship")

    def _ship_round(self) -> None:
        if not self._active:
            return
        if not self.master.crashed:
            for slave_id, slave in self.slaves.items():
                self.master.ship_backlog(slave_id)
                slave.probe(self.master.node_id)  # the repair path
        if self._g_lag is not None:
            self._g_lag.set(self.replication_lag_events)
        self._schedule_shipping()

    # ------------------------------------------------------------------ #
    # Failover
    # ------------------------------------------------------------------ #

    def lost_tail(self) -> list[LogEvent]:
        """Master events the read follower has not applied (what a
        failover right now would lose)."""
        master, follower = self._read_nodes()
        applied = follower.store.version_vector.get(master.node_id)
        return master.store.events_from_origin(master.node_id, applied)

    def failover(self) -> FailoverReport:
        """Promote the read follower; report the acknowledged-but-lost
        tail, crash the master and stop the shipping loop.

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
        self.master.crash()
        self._active = False
        return report
