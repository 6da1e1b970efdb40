"""Active/active replication with subjective/eventual consistency.

The scheme the paper's principles are *for*: every replica accepts
writes against its local state (subjective consistency), acknowledges
immediately, propagates events eagerly to its peers, and relies on
anti-entropy to repair whatever eager propagation missed (partitions,
crashes, lost messages).  Convergence — eventual consistency — follows
from the LSDB's idempotent, per-origin-ordered apply plus the convergent
rollup semantics.

Because acknowledgement never waits on a remote party, the group stays
**available under partition** (each side keeps serving its clients);
the cost is divergence while partitioned, surfacing as business-level
conflicts to resolve and possibly apologise for (principles 2.9/2.10).
Experiments E1 and E12 run on this class.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import ReadSurface, Served, is_weaker
from repro.lsdb.columnar import EventSlice
from repro.lsdb.events import EventKind
from repro.lsdb.rollup import EntityState
from repro.merge.deltas import Delta
from repro.replication.anti_entropy import AntiEntropy
from repro.replication.batching import BatchPolicy
from repro.replication.replica import (
    ReplicaNode,
    converged,
    lag_behind_peers,
)
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


class ActiveActiveGroup(ReadSurface):
    """A set of peer replicas, all writable.

    Args:
        sim: The simulator.
        network: The network the replicas attach to.
        replica_ids: Names of the replicas to create.
        eager: Whether each local write is immediately broadcast to
            peers (in addition to anti-entropy repair).
        anti_entropy_interval: Gossip period; ``0`` disables gossip
            (then only eager propagation runs — lost messages are never
            repaired, which E12 uses as a degenerate case).
        gossip_fanout: Peers contacted per gossip round per replica.
        batching: Frame policy for propagation.  With a
            ``flush_interval`` each replica coalesces eager per-write
            shipments into frames (bounded extra latency, far fewer
            wire messages); without one each write still ships
            immediately as a degenerate one-event frame.

    Example:
        >>> sim = Simulator(); net = Network(sim, latency=2.0)
        >>> group = ActiveActiveGroup(sim, net, ["r1", "r2", "r3"])
        >>> _ = group.write_delta("r1", "stock", "widget",
        ...                       Delta.add("on_hand", 5))
        >>> _ = sim.run(until=50.0)
        >>> group.is_converged()
        True
    """

    #: No strong copy exists: every replica holds its subjective view.
    levels = (ConsistencyLevel.EVENTUAL,)

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        replica_ids: list[str],
        eager: bool = True,
        anti_entropy_interval: float = 25.0,
        gossip_fanout: int = 1,
        *,
        batching: Optional[BatchPolicy] = None,
    ):
        if len(replica_ids) < 2:
            raise ValueError("an active/active group needs at least two replicas")
        self.sim = sim
        self.metrics = sim.metrics
        self.network = network
        self.eager = eager
        self.batching = batching if batching is not None else BatchPolicy()
        self.replicas: dict[str, ReplicaNode] = {}
        for replica_id in replica_ids:
            self.replicas[replica_id] = network.register(
                ReplicaNode(replica_id, sim, batching=self.batching)
            )
        self.anti_entropy: Optional[AntiEntropy] = None
        if anti_entropy_interval > 0:
            self.anti_entropy = AntiEntropy(
                sim,
                list(self.replicas.values()),
                interval=anti_entropy_interval,
                fanout=gossip_fanout,
            )
        self.writes_accepted = 0

    # ------------------------------------------------------------------ #
    # Client API: subjective writes, immediate acknowledgement
    # ------------------------------------------------------------------ #

    def write_insert(
        self,
        replica_id: str,
        entity_type: str,
        entity_key: str,
        fields: dict[str, Any],
        tx_id: str = "",
    ) -> float:
        """Insert at one replica; ack is immediate (subjective commit).

        Returns the ack time.  Never unavailable: a partitioned or
        lagging replica still accepts the write against its local view.
        """
        replica = self.replicas[replica_id]
        row = replica.store.append_local(
            entity_type, entity_key, EventKind.INSERT, dict(fields), tx_id
        )
        self._propagate(replica, row)
        self.writes_accepted += 1
        return self.sim.now

    def write_delta(
        self,
        replica_id: str,
        entity_type: str,
        entity_key: str,
        delta: Delta,
        tx_id: str = "",
    ) -> float:
        """Apply a commutative delta at one replica (ack immediate)."""
        replica = self.replicas[replica_id]
        row = replica.store.append_local(
            entity_type, entity_key, EventKind.DELTA, delta.to_payload(), tx_id
        )
        self._propagate(replica, row)
        self.writes_accepted += 1
        return self.sim.now

    def write_set_fields(
        self,
        replica_id: str,
        entity_type: str,
        entity_key: str,
        fields: dict[str, Any],
        tx_id: str = "",
    ) -> float:
        """Overwrite fields at one replica (LWW across replicas)."""
        replica = self.replicas[replica_id]
        row = replica.store.append_local(
            entity_type, entity_key, EventKind.SET_FIELDS, dict(fields), tx_id
        )
        self._propagate(replica, row)
        self.writes_accepted += 1
        return self.sim.now

    def serve(
        self,
        entity_type: str,
        entity_key: str,
        level: ConsistencyLevel,
        *,
        site: Optional[str] = None,
    ) -> Served:
        """The read protocol's primitive (see :mod:`repro.core.readpath`).

        Serves the first replica's subjective view, delivered at
        ``EVENTUAL`` at best — there is no strong copy in an
        active/active group, so a ``STRONG`` request is honestly
        reported as weaker.  The staleness stamp is the simulator's
        omniscient view: the age of the oldest peer event the serving
        replica has not applied yet.
        """
        serving = next(iter(self.replicas.values()))
        if is_weaker(ConsistencyLevel.EVENTUAL, level):
            level = ConsistencyLevel.EVENTUAL
        return (
            serving.store.get(entity_type, entity_key),
            level,
            lag_behind_peers(serving, self.replicas.values()),
            serving.node_id,
            "",
        )

    def read_at(
        self, replica_id: str, entity_type: str, entity_key: str
    ) -> Optional[EntityState]:
        """The raw subjective state one explicit replica holds."""
        return self.replicas[replica_id].store.get(entity_type, entity_key)

    # ------------------------------------------------------------------ #
    # Propagation & convergence
    # ------------------------------------------------------------------ #

    def _propagate(self, source: ReplicaNode, row: int) -> None:
        if not self.eager:
            return
        # ``row`` was just appended, so it is the log's one-row tail.
        # offer_events routes through the source's FrameShipper when the
        # batching policy coalesces, shipping immediately otherwise.
        tail = EventSlice(source.store.log.arena, range(row, row + 1))
        for replica_id, replica in self.replicas.items():
            if replica is not source:
                source.offer_events(replica_id, tail)

    def is_converged(self) -> bool:
        """Whether all replicas expose identical observable state."""
        return converged(list(self.replicas.values()))

    def divergence(self) -> int:
        """A coarse divergence measure: the number of (entity, replica)
        pairs whose observable fields differ from replica 0's view."""
        nodes = list(self.replicas.values())
        reference = nodes[0].observable_state()
        differing = 0
        for replica in nodes[1:]:
            state = replica.observable_state()
            refs = set(reference) | set(state)
            differing += sum(
                1 for ref in refs if reference.get(ref) != state.get(ref)
            )
        return differing

    def replica_list(self) -> list[ReplicaNode]:
        """The replicas, in creation order."""
        return list(self.replicas.values())
