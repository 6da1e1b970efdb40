"""Geo-distributed partial replication: shard groups behind site gateways.

Full replication ships every write to every datacenter.  The paper's
geo sections (2.7-2.10) never assume that: replicas that cannot all see
every write promptly are the *premise*, and WAN egress is the dominant
cost.  This module makes replication genuinely partial — a site only
receives :class:`~repro.lsdb.columnar.ColumnFrame` shipments for the
shards its :class:`~repro.partition.placement.PlacementPolicy` places on
it — while keeping the LSDB's per-origin contiguity invariant intact.

The structural trick is the unit of replication.  Filtering one big
replica's event stream per shard would tear holes in per-origin
sequences (``apply_remote`` requires each origin's feed to be
contiguous, so a receiver that skips "not my shard" events would wedge
its reorder buffer forever).  Instead each **(site, shard)** pair gets
its own :class:`GeoShardReplica` — node id ``"{site}/s{shard}"`` — so
every origin stream belongs to exactly one shard group and partial
replication is just "this group has members on 2 of 3 sites".

Shard replicas are not network endpoints.  Each site has one
:class:`WanGateway`, the only node the :class:`~repro.sim.network.Network`
(and the site topology, and chaos) sees.  Replicas hand outgoing
messages to their gateway, which buffers envelopes per destination site
and flushes them at the end of the instant as **one frame per WAN link**
— one latency/loss draw covers every shard group that shipped in that
round, extending the PR 5 frame amortization across the WAN.  Crashing
a gateway takes the whole site down, which is exactly the failure unit
the geo chaos soak exercises.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import (
    READ_LEVELS,
    ConsistencyUnavailable,
    Health,
    ReadSurface,
    Served,
    replica_level,
)
from repro.errors import ReplicationError
from repro.lsdb.events import EventKind
from repro.merge.deltas import Delta
from repro.partition.placement import PlacementPolicy
from repro.replication.batching import BatchPolicy
from repro.replication.replica import ReplicaNode, converged, lag_behind_peers
from repro.sim.network import Network, Node
from repro.sim.scheduler import Simulator
from repro.sim.topology import SiteTopology

__all__ = ["WanGateway", "GeoShardReplica", "GeoReplicaGroup", "site_of_replica"]


def site_of_replica(replica_id: str) -> str:
    """The site component of a ``"{site}/s{shard}"`` replica id."""
    return replica_id.split("/", 1)[0]


class WanGateway(Node):
    """One site's network endpoint: the WAN aggregation point.

    All of a site's shard replicas route through its gateway.  Same-site
    deliveries short-circuit (no wire hop — the LAN inside a site is not
    modelled beyond the network's base latency, which gateway-to-gateway
    frames already pay).  Cross-site messages are buffered per
    destination site and flushed at the end of the current instant as a
    single :meth:`~repro.sim.network.Node.send_batch` per link, so every
    shard group shipping in the same round shares one latency draw and
    one loss coin per WAN link.

    Envelopes are ``{"to": replica_id, "frm": replica_id, "msg": ...}``;
    the receiving gateway unwraps each and hands it to the addressed
    local replica.
    """

    def __init__(self, node_id: str, site: str, sim: Simulator):
        super().__init__(node_id)
        self.site = site
        self.sim = sim
        self.locals: dict[str, "GeoShardReplica"] = {}
        self._buffers: dict[str, list[dict[str, Any]]] = {}
        self._sizes: dict[str, int] = {}
        self._armed = False

    def route(
        self, src_id: str, dst_id: str, message: Any, *, size: int = 1
    ) -> bool:
        """Accept one replica-to-replica message for delivery."""
        if self.crashed:
            return False
        dst_site = site_of_replica(dst_id)
        if dst_site == self.site:
            target = self.locals.get(dst_id)
            if target is None or target.crashed:
                return False
            target.handle_message(src_id, message)
            return True
        envelope = {"to": dst_id, "frm": src_id, "msg": message}
        self._buffers.setdefault(dst_site, []).append(envelope)
        self._sizes[dst_site] = self._sizes.get(dst_site, 0) + size
        if not self._armed:
            self._armed = True
            # End-of-instant flush: everything routed at the same virtual
            # time coalesces into one frame per WAN link.
            self.sim.schedule(0.0, self.flush, label=f"wan-flush {self.node_id}")
        return True

    def flush(self) -> None:
        """Ship every buffered envelope, one frame per destination site."""
        self._armed = False
        if not self._buffers:
            return
        buffers, self._buffers = self._buffers, {}
        sizes, self._sizes = self._sizes, {}
        for dst_site in sorted(buffers):
            self.send_batch(
                f"gw.{dst_site}", buffers[dst_site], size=sizes[dst_site]
            )

    def handle_message(self, source: str, message: Mapping[str, Any]) -> None:
        target = self.locals.get(message["to"])
        if target is None or target.crashed:
            return
        target.handle_message(message["frm"], message["msg"])


class GeoShardReplica(ReplicaNode):
    """One shard's copy at one site.

    A normal :class:`~repro.replication.replica.ReplicaNode` — same
    store, same two-message protocol, same frame shipping — except it is
    not registered on the network: ``send``/``send_batch`` hand frames
    to the site's :class:`WanGateway` instead, after refusing any
    destination whose site does not host this shard (the placement
    guard that keeps replication partial even against buggy callers).
    """

    def __init__(
        self,
        site: str,
        shard: int,
        gateway: WanGateway,
        placement: PlacementPolicy,
        sim: Simulator,
        *,
        batching: Optional[BatchPolicy] = None,
    ):
        super().__init__(f"{site}/s{shard}", sim, batching=batching)
        self.site = site
        self.shard = shard
        self.gateway = gateway
        self.placement = placement

    def _admit(self, destination: str) -> bool:
        return not self.crashed and self.placement.hosts(
            site_of_replica(destination), self.shard
        )

    def send(self, destination: str, message: Any) -> bool:
        if not self._admit(destination):
            return False
        return self.gateway.route(self.node_id, destination, message)

    def send_batch(
        self, destination: str, messages: list, *, size: Optional[int] = None
    ) -> bool:
        if not self._admit(destination):
            return False
        count = size if size is not None else len(messages)
        shipped_all = True
        for message in messages:
            if not self.gateway.route(
                self.node_id, destination, message, size=count
            ):
                shipped_all = False
            count = 0  # the frame's logical size is booked once
        return shipped_all


class GeoReplicaGroup(ReadSurface):
    """Partially replicated shard groups across datacenters.

    The geo twin of the flat replication schemes: ``placement`` decides
    which sites copy which shards, one :class:`WanGateway` per site is
    the network/chaos-visible failure unit, and one
    :class:`GeoShardReplica` per (hosting site, shard) carries the data.
    Writes route to the shard's first *live* preference site and ack
    immediately (subjective commit); a periodic ship loop propagates
    per-origin backlogs inside each group, and anti-entropy probes
    repair whatever shipping lost.

    Args:
        sim: The simulator.
        network: The network the gateways attach to.
        topology: Site topology; every placement site must be a
            topology site.  Gateways are assigned to their sites here,
            which is what puts WAN latency/loss on inter-site frames.
        placement: The shard-to-site :class:`PlacementPolicy`.
        ship_interval: Period of the per-group log shipping loop.
        anti_entropy_interval: Gossip period inside each shard group;
            ``0`` disables repair probes.
        batching: Frame policy for event shipments.

    Example:
        >>> from repro.sim.scheduler import Simulator
        >>> from repro.sim.network import Network
        >>> from repro.sim.topology import SiteTopology, WanLink
        >>> from repro.partition.placement import PlacementPolicy
        >>> sim = Simulator(); net = Network(sim, latency=1.0)
        >>> topo = SiteTopology(["dc1", "dc2", "dc3"],
        ...                     default_link=WanLink(latency=30.0))
        >>> net.attach_topology(topo)
        >>> group = GeoReplicaGroup(sim, net, topo,
        ...     PlacementPolicy(["dc1", "dc2", "dc3"], replicas=2, shards=4))
        >>> _ = group.write_insert("stock", "widget", {"on_hand": 5})
        >>> _ = sim.run(until=200.0)
        >>> group.is_converged()
        True
    """

    levels = READ_LEVELS

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        topology: SiteTopology,
        placement: PlacementPolicy,
        *,
        ship_interval: float = 10.0,
        anti_entropy_interval: float = 25.0,
        batching: Optional[BatchPolicy] = None,
    ):
        if ship_interval <= 0:
            raise ValueError(f"ship_interval must be positive, got {ship_interval}")
        missing = [s for s in placement.sites if s not in topology.sites]
        if missing:
            raise ValueError(
                f"placement sites {missing} are not in the topology "
                f"{list(topology.sites)}"
            )
        self.sim = sim
        self.metrics = sim.metrics
        self.network = network
        self.topology = topology
        self.placement = placement
        self.ship_interval = ship_interval
        self.anti_entropy_interval = anti_entropy_interval
        self.batching = batching if batching is not None else BatchPolicy()
        self.gateways: dict[str, WanGateway] = {}
        for site in placement.sites:
            gateway = WanGateway(f"gw.{site}", site, sim)
            network.register(gateway)
            topology.assign(gateway.node_id, site)
            self.gateways[site] = gateway
        self.replicas: dict[str, GeoShardReplica] = {}
        self.groups: dict[int, list[GeoShardReplica]] = {}
        for shard in range(placement.shards):
            members: list[GeoShardReplica] = []
            for site in placement.sites_for_shard(shard):
                replica = GeoShardReplica(
                    site,
                    shard,
                    self.gateways[site],
                    placement,
                    sim,
                    batching=self.batching,
                )
                self.gateways[site].locals[replica.node_id] = replica
                self.replicas[replica.node_id] = replica
                members.append(replica)
            self.groups[shard] = members
        # (shard, reader site) -> the members in the order that reader
        # tries them; filled lazily, dropped when a link changes.
        self._read_orders: dict[
            tuple[int, Optional[str]], tuple[GeoShardReplica, ...]
        ] = {}
        self._links_version = topology.links_version
        self.writes_accepted = 0
        self._h_staleness = (
            sim.metrics.histogram("read.staleness_events", scheme="geo")
            if sim.metrics is not None
            else None
        )
        sim.schedule(self.ship_interval, self._ship_round, label="geo-ship")
        if anti_entropy_interval > 0:
            sim.schedule(
                anti_entropy_interval, self._anti_entropy_round, label="geo-gossip"
            )

    # ------------------------------------------------------------------ #
    # Writes: routed to the shard's first live site, acked immediately
    # ------------------------------------------------------------------ #

    def coordinator(self, entity_type: str, entity_key: str) -> GeoShardReplica:
        """The replica that accepts writes for an entity right now: the
        first site on the shard's preference list whose gateway is up.

        Raises:
            ReplicationError: When every hosting site is down.
        """
        shard = self.placement.shard_of(entity_type, entity_key)
        for replica in self.groups[shard]:  # already in preference order
            if not replica.gateway.crashed:
                return replica
        raise ReplicationError(
            f"no live site hosts shard {shard} "
            f"(preference {self.placement.sites_for_shard(shard)})"
        )

    def write_insert(
        self, entity_type: str, entity_key: str, fields: dict[str, Any], tx_id: str = ""
    ) -> float:
        """Insert at the shard's coordinator; ack immediate."""
        replica = self.coordinator(entity_type, entity_key)
        replica.store.append_local(
            entity_type, entity_key, EventKind.INSERT, dict(fields), tx_id
        )
        self.writes_accepted += 1
        return self.sim.now

    def write_delta(
        self, entity_type: str, entity_key: str, delta: Delta, tx_id: str = ""
    ) -> float:
        """Apply a commutative delta at the coordinator; ack immediate."""
        replica = self.coordinator(entity_type, entity_key)
        replica.store.append_local(
            entity_type, entity_key, EventKind.DELTA, delta.to_payload(), tx_id
        )
        self.writes_accepted += 1
        return self.sim.now

    def write_set_fields(
        self, entity_type: str, entity_key: str, fields: dict[str, Any], tx_id: str = ""
    ) -> float:
        """Overwrite fields at the coordinator (LWW across the group)."""
        replica = self.coordinator(entity_type, entity_key)
        replica.store.append_local(
            entity_type, entity_key, EventKind.SET_FIELDS, dict(fields), tx_id
        )
        self.writes_accepted += 1
        return self.sim.now

    # ------------------------------------------------------------------ #
    # Reads: site-local preference, honest delivered-level stamping
    # ------------------------------------------------------------------ #

    def health(self) -> tuple[Health, Health]:
        """Both levels are up while any site's gateway is."""

        def any_gateway_up() -> bool:
            for gateway in self.gateways.values():
                if not gateway.crashed:
                    return True
            return False

        return any_gateway_up, any_gateway_up

    def serve(
        self,
        entity_type: str,
        entity_key: str,
        level: ConsistencyLevel,
        *,
        site: Optional[str] = None,
    ) -> Served:
        """The read protocol's primitive (see :mod:`repro.core.readpath`).

        ``site`` names where the reader sits: among the live hosting
        replicas the site-local one is preferred, then the nearest by
        WAN latency — a cross-DC hop only happens when the local site
        does not host (or has lost) the shard.  ``STRONG`` is served by
        the shard's home replica and reported ``STRONG`` only when it
        has genuinely seen every group write (measured staleness zero);
        anything else is reported at the replica floor with the
        measured cross-site staleness, which is what the front door's
        bounded rung gates on.  Every answer is the serving replica's
        own fold.

        Routing is constant work: the shard comes from the placement's
        per-key memo, and the candidates from a per-``(shard, site)``
        read order built once (rebuilt after a
        :meth:`~repro.sim.topology.SiteTopology.set_link`); only gateway
        liveness is read per request.

        Raises:
            ConsistencyUnavailable: No live site hosts the shard.
        """
        shard = self.placement.shard_of(entity_type, entity_key)
        members = self.groups[shard]
        home = members[0]
        if level is ConsistencyLevel.STRONG and not home.gateway.crashed:
            serving = home
        else:
            if self.topology.links_version != self._links_version:
                self._read_orders.clear()
                self._links_version = self.topology.links_version
            order = self._read_orders.get((shard, site))
            if order is None:
                order = self._read_order(shard, site)
            for serving in order:  # liveness is read per request
                if not serving.gateway.crashed:
                    break
            else:
                raise ConsistencyUnavailable(
                    f"no live site hosts shard {shard} for "
                    f"{entity_type}/{entity_key}"
                )
        staleness = lag_behind_peers(serving, members)
        if not (serving is home and staleness == 0.0):
            level = replica_level(level)
        if self._h_staleness is not None and serving is not home:
            self._h_staleness.record(
                sum(
                    peer.store.count_from_origin(
                        peer.node_id,
                        serving.store.version_vector.get(peer.node_id),
                    )
                    for peer in members
                    if peer is not serving
                )
            )
        state = serving.store.get(entity_type, entity_key)
        return state, level, staleness, serving.node_id, serving.site

    def _read_order(
        self, shard: int, site: Optional[str]
    ) -> tuple[GeoShardReplica, ...]:
        """Build and cache the order a reader at ``site`` tries the
        shard's members in: ascending WAN latency from ``site`` (its own
        site costs 0), preference order breaking ties (the sort is
        stable); plain preference order when the reader is siteless."""
        members = self.groups[shard]
        if site is None:
            order = tuple(members)
        else:
            latency = self.topology.latency_between
            order = tuple(sorted(members, key=lambda m: latency(site, m.site)))
        self._read_orders[(shard, site)] = order
        return order

    # ------------------------------------------------------------------ #
    # Propagation: per-group shipping + anti-entropy via the gateways
    # ------------------------------------------------------------------ #

    def _live_pairs(self):
        """``(replica, peer)`` for every ordered pair of group members
        whose first member's site is up."""
        for members in self.groups.values():
            for replica in members:
                if not self.gateways[replica.site].crashed:
                    for peer in members:
                        if peer is not replica:
                            yield replica, peer

    def _ship_round(self) -> None:
        for source, destination in self._live_pairs():
            source.ship_backlog(destination.node_id)
        self.sim.schedule(self.ship_interval, self._ship_round, label="geo-ship")

    def _anti_entropy_round(self) -> None:
        for replica, peer in self._live_pairs():
            replica.probe(peer.node_id)
        self.sim.schedule(
            self.anti_entropy_interval,
            self._anti_entropy_round,
            label="geo-gossip",
        )

    # ------------------------------------------------------------------ #
    # Convergence and lag (tests, soaks, benchmarks)
    # ------------------------------------------------------------------ #

    def replica_list(self) -> list[GeoShardReplica]:
        """All shard replicas, group by group in preference order."""
        return [m for shard in sorted(self.groups) for m in self.groups[shard]]

    def is_converged(self) -> bool:
        """Whether every shard group's members agree (per-group
        convergence is all partial replication can promise — sites do
        not hold shards they were never placed)."""
        return all(converged(members) for members in self.groups.values())

    @property
    def replication_lag_events(self) -> int:
        """Total events some group member has not applied yet, summed
        over all (origin, follower) pairs — the group-wide backlog."""
        lag = 0
        for members in self.groups.values():
            for origin in members:
                for follower in members:
                    if follower is origin:
                        continue
                    applied = follower.store.version_vector.get(origin.node_id)
                    lag += origin.store.count_from_origin(
                        origin.node_id, applied
                    )
        return lag

    def site_replicas(self, site: str) -> list[GeoShardReplica]:
        """The shard replicas hosted at one site, ascending by shard."""
        return [
            self.replicas[f"{site}/s{shard}"]
            for shard in self.placement.shards_of(site)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GeoReplicaGroup({len(self.placement.sites)} sites, "
            f"{self.placement.shards} shards x{self.placement.replicas})"
        )
