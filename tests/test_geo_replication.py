"""Geo-distributed partial replication (PR 8 tentpole).

Four layers under test: the :class:`~repro.sim.topology.SiteTopology`
the network layers WAN links onto, the
:class:`~repro.replication.geo.WanGateway` that aggregates a site's
outbound traffic into per-link frames, the
:class:`~repro.replication.geo.GeoReplicaGroup` whose shipping consults
the placement (a site only receives frames for shards it hosts), and
the redesigned cluster API (``with_topology`` / ``with_placement`` /
sited reads / sited front door) that assembles them.
"""

from __future__ import annotations

import pytest

from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import ConsistencyUnavailable, ReadRequest, ReadResult
from repro.errors import ReplicationError
from repro.partition.placement import PlacementPolicy
from repro.replication.geo import GeoReplicaGroup, site_of_replica
from repro.sim.network import Network, Node
from repro.sim.scheduler import Simulator
from repro.sim.topology import SiteTopology, WanLink


def make_topology(sim, network, sites=("dc1", "dc2", "dc3"), **kwargs):
    kwargs.setdefault("default_link", WanLink(latency=30.0))
    topology = SiteTopology(sites, **kwargs)
    network.attach_topology(topology)
    return topology


def make_geo(
    sim,
    *,
    sites=("dc1", "dc2", "dc3"),
    replicas=2,
    shards=8,
    lan=2.0,
    wan=30.0,
    **kwargs,
):
    network = Network(sim, latency=lan)
    topology = make_topology(
        sim, network, sites, default_link=WanLink(latency=wan)
    )
    placement = PlacementPolicy(sites, replicas=replicas, shards=shards)
    group = GeoReplicaGroup(sim, network, topology, placement, **kwargs)
    return network, topology, placement, group


class Recorder(Node):
    def __init__(self, node_id, sim):
        super().__init__(node_id)
        self.sim = sim
        self.deliveries = []

    def handle_message(self, source, message):
        self.deliveries.append((self.sim.now, source, message))


class TestTopologyOnNetwork:
    def test_cross_site_send_pays_the_wan_latency(self):
        sim = Simulator(seed=1)
        network = Network(sim, latency=2.0)
        topology = make_topology(sim, network)
        a, b = Recorder("a", sim), Recorder("b", sim)
        network.register(a)
        network.register(b)
        topology.assign("a", "dc1")
        topology.assign("b", "dc2")
        a.send("b", {"x": 1})
        sim.run()
        (at, _, _), = b.deliveries
        assert at == 32.0  # 2.0 LAN base + 30.0 constant WAN leg

    def test_same_site_traffic_sees_no_wan(self):
        sim = Simulator(seed=1)
        network = Network(sim, latency=2.0)
        topology = make_topology(sim, network)
        a, b = Recorder("a", sim), Recorder("b", sim)
        network.register(a)
        network.register(b)
        topology.assign("a", "dc1")
        topology.assign("b", "dc1")
        a.send("b", {"x": 1})
        sim.run()
        (at, _, _), = b.deliveries
        assert at == 2.0
        assert network.stats.links == {}  # nothing booked against a link

    def test_attaching_a_topology_shifts_no_randomness(self):
        """Same seed, same same-site workload: delivery times must be
        byte-identical with and without the (lossless) topology —
        arming geo must not reshuffle existing single-site runs."""
        def deliveries(with_topology):
            sim = Simulator(seed=9)
            network = Network(
                sim,
                latency=lambda rng: rng.uniform(1.0, 3.0),
                loss_probability=0.2,
            )
            if with_topology:
                topology = make_topology(sim, network)
                # Both endpoints in one site: no WAN leg, no loss coin.
                topology.assign("a", "dc1")
                topology.assign("b", "dc1")
            a, b = Recorder("a", sim), Recorder("b", sim)
            network.register(a)
            network.register(b)
            for index in range(50):
                sim.schedule_at(
                    float(index), lambda i=index: a.send("b", {"n": i})
                )
            sim.run()
            return b.deliveries

        assert deliveries(False) == deliveries(True)

    def test_per_link_stats_are_split_by_direction(self):
        sim = Simulator(seed=1)
        network = Network(sim, latency=1.0)
        topology = make_topology(sim, network)
        a, b = Recorder("a", sim), Recorder("b", sim)
        network.register(a)
        network.register(b)
        topology.assign("a", "dc1")
        topology.assign("b", "dc2")
        a.send("b", {"x": 1})
        a.send_batch("b", [{"x": 2}, {"x": 3}], size=2)
        b.send("a", {"x": 4})
        sim.run()
        rendered = network.stats.links_to_dict()
        assert rendered["dc1->dc2"]["payloads"] == 3
        assert rendered["dc1->dc2"]["frames"] == 2  # the single + the batch
        assert rendered["dc2->dc1"]["payloads"] == 1
        assert network.stats.wan_payloads == 4

    def test_wan_loss_coin_only_flips_on_lossy_links(self):
        sim = Simulator(seed=3)
        network = Network(sim, latency=1.0)
        topology = make_topology(
            sim, network, default_link=WanLink(latency=5.0, loss_probability=1.0)
        )
        a, b = Recorder("a", sim), Recorder("b", sim)
        network.register(a)
        network.register(b)
        topology.assign("a", "dc1")
        topology.assign("b", "dc2")
        a.send("b", {"x": 1})
        sim.run()
        assert b.deliveries == []
        assert network.stats.links[("dc1", "dc2")].dropped_loss == 1

    def test_in_flight_drops_are_booked_on_the_link(self):
        sim = Simulator(seed=3)
        network = Network(sim, latency=1.0)
        topology = make_topology(sim, network)
        a, b, c = Recorder("a", sim), Recorder("b", sim), Recorder("c", sim)
        for node, site in ((a, "dc1"), (b, "dc2"), (c, "dc3")):
            network.register(node)
            topology.assign(node.node_id, site)
        a.send("b", {"x": 1})
        a.send_batch("c", [{"x": 2}, {"x": 3}])
        sim.schedule(10.0, b.crash)
        sim.schedule(10.0, lambda: network.partition_into({"a"}, {"c"}))
        sim.run()
        to_b = network.stats.links[("dc1", "dc2")]
        to_c = network.stats.links[("dc1", "dc3")]
        assert (to_b.sent, to_b.dropped_crashed) == (1, 1)
        assert (to_c.sent, to_c.dropped_partition) == (1, 1)
        assert b.deliveries == c.deliveries == []

    def test_link_books_balance_without_duplication(self):
        sim = Simulator(seed=5)
        network = Network(sim, latency=1.0, loss_probability=0.2)
        topology = make_topology(
            sim, network, default_link=WanLink(latency=5.0, loss_probability=0.2)
        )
        nodes = [Recorder(f"n{index}", sim) for index in range(6)]
        for index, node in enumerate(nodes):
            network.register(node)
            topology.assign(node.node_id, ("dc1", "dc2", "dc3")[index % 3])
        for step in range(60):
            source, destination = nodes[step % 6], nodes[(step * 5 + 1) % 6]
            sim.schedule_at(
                float(step), lambda s=source, d=destination, n=step: s.send(d.node_id, n)
            )
        # Faults both at send time and while frames are on the wire.
        sim.schedule_at(12.5, nodes[1].crash)
        sim.schedule_at(30.0, nodes[1].recover)
        sim.schedule_at(
            33.5, lambda: network.partition_into({"n0", "n1", "n2"}, {"n3", "n4", "n5"})
        )
        sim.schedule_at(48.0, network.heal)
        sim.run()
        links = network.stats.links.values()
        assert sum(link.dropped_crashed + link.dropped_partition for link in links) > 0
        for link in links:
            assert link.sent == link.delivered + link.dropped


class TestGatewayAggregation:
    def test_one_instant_one_frame_per_link(self):
        """Every shard shipping to the same destination site in one
        instant shares one WAN frame — the per-link aggregation that
        makes partial replication's frame count per-link, not
        per-shard."""
        sim = Simulator(seed=1)
        network, topology, placement, group = make_geo(
            sim, replicas=2, shards=8, ship_interval=10.0,
            anti_entropy_interval=0.0,
        )
        for index in range(16):  # touch many shards in one instant
            group.write_set_fields("order", f"k{index}", {"n": index})
        sim.run(until=11.0)  # exactly one ship round fires
        stats = network.stats
        assert stats.wan_payloads >= 16
        # At most one frame per directed link per instant: 3 sites give
        # 6 directed links, and only one ship instant has fired.
        assert stats.wan_frames <= 6
        for link in stats.links.values():
            assert link.frames <= 1

    def test_partial_replication_only_ships_to_hosting_sites(self):
        sim = Simulator(seed=1)
        network, topology, placement, group = make_geo(
            sim, replicas=2, shards=8, ship_interval=10.0,
        )
        group.write_set_fields("order", "k1", {"n": 1})
        sim.run(until=200.0)
        assert group.is_converged()
        shard = placement.shard_of("order", "k1")
        hosting = set(placement.sites_for_shard(shard))
        absent = set(placement.sites) - hosting
        assert absent  # replicas=2 of 3 sites: someone is left out
        for site in absent:
            # The non-hosting site has no replica of the shard at all.
            assert all(
                replica.shard != shard
                for replica in group.site_replicas(site)
            )
            state = None
            for replica in group.groups[shard]:
                state = replica.store.get("order", "k1")
                assert state is not None and state.fields["n"] == 1

    def test_replica_ids_carry_their_site(self):
        sim = Simulator(seed=1)
        _, _, placement, group = make_geo(sim, replicas=2, shards=4)
        for replica_id, replica in group.replicas.items():
            assert site_of_replica(replica_id) == replica.site
            assert placement.hosts(replica.site, replica.shard)


class TestGeoReads:
    def _converged_group(self, sim, **kwargs):
        network, topology, placement, group = make_geo(sim, **kwargs)
        group.write_set_fields("order", "k1", {"n": 7})
        sim.run(until=300.0)
        assert group.is_converged()
        return placement, group

    def test_sited_read_serves_locally_when_hosted(self):
        sim = Simulator(seed=1)
        placement, group = self._converged_group(sim, replicas=2, shards=8)
        shard = placement.shard_of("order", "k1")
        for site in placement.sites_for_shard(shard):
            result = group.read(
                "order", "k1", request=ReadRequest.eventual(), site=site
            )
            assert isinstance(result, ReadResult)
            assert result.site == site  # served without crossing the WAN
            assert result.fields["n"] == 7

    def test_remote_site_read_reports_the_serving_site(self):
        sim = Simulator(seed=1)
        placement, group = self._converged_group(sim, replicas=2, shards=8)
        shard = placement.shard_of("order", "k1")
        hosting = set(placement.sites_for_shard(shard))
        outsider = next(iter(set(placement.sites) - hosting))
        result = group.read(
            "order", "k1", request=ReadRequest.eventual(), site=outsider
        )
        assert result.site in hosting
        assert result.served_by.startswith(f"{result.site}/")

    def test_strong_read_requires_the_home_site(self):
        sim = Simulator(seed=1)
        placement, group = self._converged_group(sim, replicas=2, shards=8)
        shard = placement.shard_of("order", "k1")
        home = placement.home_site(shard)
        result = group.read("order", "k1", request=ReadRequest.strong())
        assert result.delivered_level is ConsistencyLevel.STRONG
        assert result.site == home
        # Crash the home gateway: a non-degradable strong read refuses
        # rather than lying about the guarantee.
        group.gateways[home].crash()
        with pytest.raises(ConsistencyUnavailable):
            group.read(
                "order",
                "k1",
                request=ReadRequest(
                    level=ConsistencyLevel.STRONG, allow_degraded=False
                ),
            )
        # The degradable form fails over and stamps honestly.
        degraded = group.read("order", "k1", request=ReadRequest.strong())
        assert degraded.delivered_level is ConsistencyLevel.BOUNDED_STALENESS
        assert degraded.site != home

    def test_all_hosting_sites_down_is_unavailable(self):
        sim = Simulator(seed=1)
        placement, group = self._converged_group(sim, replicas=2, shards=8)
        shard = placement.shard_of("order", "k1")
        for site in placement.sites_for_shard(shard):
            group.gateways[site].crash()
        with pytest.raises(ConsistencyUnavailable):
            group.read("order", "k1", request=ReadRequest.eventual())

    def test_writes_fail_over_to_the_next_preference_site(self):
        sim = Simulator(seed=1)
        network, topology, placement, group = make_geo(
            sim, replicas=2, shards=8
        )
        shard = placement.shard_of("order", "k1")
        preference = placement.sites_for_shard(shard)
        group.gateways[preference[0]].crash()
        group.write_set_fields("order", "k1", {"n": 1})
        coordinator = group.coordinator("order", "k1")
        assert coordinator.site == preference[1]
        for site in preference[1:]:
            group.gateways[site].crash()
        with pytest.raises(ReplicationError):
            group.write_set_fields("order", "k1", {"n": 2})


def reference_served(group, topology, entity_key, shard, level, site):
    """What ``serve`` picked before routing was precomputed: rank the
    live members on every read (the old ``_nearest``) —
    ``(served_by, site)``, or the unavailability message."""
    members = group.groups[shard]
    live = [m for m in members if not group.gateways[m.site].crashed]
    if not live:
        return f"no live site hosts shard {shard} for order/{entity_key}"
    home = members[0]
    if level is ConsistencyLevel.STRONG and home in live:
        best = home
    elif site is None:
        best = live[0]
    else:
        best = live[0]
        best_cost = topology.latency_between(site, best.site)
        for member in live[1:]:
            cost = topology.latency_between(site, member.site)
            if cost < best_cost:
                best, best_cost = member, cost
    return best.node_id, best.site


def served(group, entity_key, level, site):
    try:
        _, _, _, served_by, at = group.serve("order", entity_key, level, site=site)
    except ConsistencyUnavailable as refused:
        return str(refused)
    return served_by, at


class TestReadOrder:
    """``serve`` walks a precomputed per-(shard, site) order and reads
    only liveness per request; it must pick exactly the replica the
    per-read ranking picked."""

    SITES = ("dc1", "dc2", "dc3", "dc4")
    READERS = SITES + (None, "elsewhere")
    LEVELS = (
        ConsistencyLevel.STRONG,
        ConsistencyLevel.BOUNDED_STALENESS,
        ConsistencyLevel.EVENTUAL,
    )
    # Asymmetric, with a latency tie (dc1->dc2 == dc1->dc3) and a
    # zero-latency link (dc3->dc2, level with dc3's own site).
    LINKS = {
        ("dc1", "dc2"): WanLink(latency=10.0),
        ("dc2", "dc1"): WanLink(latency=40.0),
        ("dc1", "dc3"): WanLink(latency=10.0),
        ("dc3", "dc2"): WanLink(latency=0.0),
        ("dc2", "dc3"): WanLink(latency=5.0),
        ("dc4", "dc1"): WanLink(latency=25.0),
        ("dc4", "dc3"): WanLink(latency=25.0),
    }

    def _group(self):
        sim = Simulator(seed=1)
        network = Network(sim, latency=2.0)
        topology = make_topology(sim, network, self.SITES, links=self.LINKS)
        placement = PlacementPolicy(self.SITES, replicas=3, shards=8)
        group = GeoReplicaGroup(sim, network, topology, placement)
        keys: dict[int, str] = {}  # one entity key per shard
        index = 0
        while len(keys) < placement.shards:
            keys.setdefault(placement.shard_of("order", f"k{index}"), f"k{index}")
            index += 1
        return topology, group, keys

    def test_serve_matches_the_per_read_ranking(self):
        topology, group, keys = self._group()
        gateways = [group.gateways[site] for site in self.SITES]
        checked = 0
        # Every crashed subset, all-down first: the orders are built
        # while no site is live, so an order that kept liveness fails.
        for mask in reversed(range(1 << len(gateways))):
            for bit, gateway in enumerate(gateways):
                gateway.crash() if mask >> bit & 1 else gateway.recover()
            for shard, key in keys.items():
                for site in self.READERS:
                    for level in self.LEVELS:
                        assert served(group, key, level, site) == reference_served(
                            group, topology, key, shard, level, site
                        ), (mask, shard, site, level)
                        checked += 1
        assert checked == 16 * 8 * 6 * 3

    def test_a_link_change_reorders_the_next_read(self):
        topology, group, keys = self._group()
        shard, key = next(iter(keys.items()))
        reader = next(
            site for site in self.SITES
            if site not in {m.site for m in group.groups[shard]}
        )
        level = ConsistencyLevel.EVENTUAL
        _, picked = served(group, key, level, reader)
        other = next(m for m in group.groups[shard] if m.site != picked)
        version = topology.links_version
        # After construction: the member the reader passed over becomes
        # the nearest, the one it picked the farthest.
        topology.set_link(reader, other.site, WanLink(latency=0.0))
        topology.set_link(reader, picked, WanLink(latency=50.0))
        assert topology.links_version == version + 2
        assert served(group, key, level, reader) == (other.node_id, other.site)
        assert served(group, key, level, reader) == reference_served(
            group, topology, key, shard, level, reader
        )


class TestClusterGeoApi:
    def _geo_cluster(self, **door):
        from repro.cluster import Cluster

        builder = (
            Cluster.build(seed=7)
            .with_tracing()
            .with_topology(("dc1", "dc2", "dc3"), wan_latency=30.0)
            .with_placement(replicas=2, shards=8)
        )
        if door:
            builder = builder.with_front_door(**door)
        return builder.create()

    def test_placement_requires_topology(self):
        from repro.cluster import Cluster

        with pytest.raises(ValueError, match="requires with_topology"):
            Cluster.build().with_placement(replicas=2).create()

    def test_placement_replaces_with_replicas(self):
        from repro.cluster import Cluster

        with pytest.raises(ValueError, match="one replication style"):
            (
                Cluster.build()
                .with_topology(("dc1", "dc2"))
                .with_placement(replicas=2)
                .with_replicas(3)
                .create()
            )

    def test_prebuilt_policy_must_match_topology_sites(self):
        from repro.cluster import Cluster

        policy = PlacementPolicy(["dc1", "dc9"], replicas=2)
        with pytest.raises(ValueError, match="do not match"):
            (
                Cluster.build()
                .with_topology(("dc1", "dc2"))
                .with_placement(policy=policy)
                .create()
            )

    def test_site_read_requires_a_geo_cluster(self):
        from repro.cluster import Cluster

        cluster = Cluster.build().with_replicas(2).create()
        with pytest.raises(ValueError, match="site="):
            cluster.read("order", "k1", site="dc1")

    def test_cluster_read_reports_serving_site(self):
        cluster = self._geo_cluster()
        cluster.replication.write_set_fields("order", "k1", {"n": 3})
        cluster.sim.run(until=300.0)
        shard = cluster.placement.shard_of("order", "k1")
        home = cluster.placement.home_site(shard)
        result = cluster.read(
            "order", "k1", request=ReadRequest.eventual(), site=home
        )
        assert result.site == home
        assert result.fields["n"] == 3

    def test_sited_front_door_prefers_local_rungs(self):
        cluster = self._geo_cluster(site="dc2")
        cluster.replication.write_set_fields("order", "k1", {"n": 3})
        cluster.sim.run(until=300.0)
        result = cluster.read(
            "order",
            "k1",
            request=ReadRequest(
                level=ConsistencyLevel.BOUNDED_STALENESS, tenant="t1"
            ),
        )
        assert result.ok and result.fields["n"] == 3
        shard = cluster.placement.shard_of("order", "k1")
        if cluster.placement.hosts("dc2", shard):
            assert result.site == "dc2"
        else:
            assert result.site in cluster.placement.sites_for_shard(shard)
