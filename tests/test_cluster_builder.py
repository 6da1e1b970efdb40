"""The Cluster builder facade and the unified read protocol."""

from __future__ import annotations

import pytest

from repro import Cluster, ClusterBuilder, ConsistencyLevel
from repro.core.readpath import ReadRequest, ReadSurface
from repro.lsdb.store import LSDBStore
from repro.replication import (
    ActiveActiveGroup,
    MasterSlaveGroup,
    QuorumGroup,
    SyncPrimaryBackup,
)
from repro.replication.batching import BatchPolicy
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


class TestBuilderModes:
    def test_async_pair_round_trip(self):
        cluster = (
            Cluster.build(seed=1)
            .with_replicas(2, ship_interval=10.0)
            .create()
        )
        assert isinstance(cluster.replication, MasterSlaveGroup)
        assert set(cluster.replication.slaves) == {"slave-1"}
        cluster.replication.write_insert("order", "o-1", {"total": 5})
        cluster.sim.run(until=30.0)
        assert cluster.read("order", "o-1").fields["total"] == 5
        assert cluster.read(
            "order", "o-1", request=ReadRequest.eventual()
        ).fields["total"] == 5

    def test_default_mode_is_master_slave(self):
        cluster = Cluster.build(seed=1).with_replicas(3).create()
        assert isinstance(cluster.replication, MasterSlaveGroup)
        assert set(cluster.replication.slaves) == {"slave-1", "slave-2"}

    def test_sync_pair(self):
        cluster = Cluster.build(seed=1).with_replicas(2, mode="sync").create()
        assert isinstance(cluster.replication, SyncPrimaryBackup)
        cluster.replication.write_insert("order", "o-1", {"total": 2})
        cluster.sim.run(until=50.0)
        assert cluster.read("order", "o-1").fields["total"] == 2

    def test_sync_rejects_larger_groups(self):
        with pytest.raises(ValueError):
            Cluster.build().with_replicas(3, mode="sync").create()

    def test_active_active(self):
        cluster = (
            Cluster.build(seed=1)
            .with_replicas(3, mode="active_active", anti_entropy_interval=5.0)
            .create()
        )
        assert isinstance(cluster.replication, ActiveActiveGroup)
        assert set(cluster.replication.replicas) == {"r1", "r2", "r3"}

    def test_quorum(self):
        cluster = (
            Cluster.build(seed=1).with_replicas(3, mode="quorum").create()
        )
        assert isinstance(cluster.replication, QuorumGroup)

    def test_unknown_mode_rejected(self):
        for mode in ("chain", "async"):
            with pytest.raises(ValueError):
                Cluster.build().with_replicas(2, mode=mode)

    def test_single_replica_rejected(self):
        with pytest.raises(ValueError):
            Cluster.build().with_replicas(1)


class TestBuilderComponents:
    def test_standalone_stack(self):
        cluster = (
            Cluster.build(seed=7)
            .with_store(name="orders-unit", origin="u1")
            .with_queue()
            .with_transactions(commit_cost=1.0, defer_lag=2.0)
            .with_compensation()
            .create()
        )
        assert cluster.store.origin == "u1"
        tx = cluster.transactions.begin()
        tx.insert("order", "o-1", {"total": 1})
        receipt = tx.commit()
        assert receipt.committed
        cluster.sim.run()
        assert cluster.read("order", "o-1").fields["total"] == 1
        assert cluster.compensation.store is cluster.store

    def test_transactions_imply_a_store(self):
        cluster = Cluster.build().with_transactions().create()
        assert cluster.store is not None
        assert cluster.transactions is not None

    def test_partition_units(self):
        cluster = Cluster.build().with_partition_units("u1", "u2").create()
        assert set(cluster.units) == {"u1", "u2"}
        assert cluster.units["u1"].store.origin == "u1"

    def test_warehouse_needs_a_source(self):
        with pytest.raises(ValueError):
            Cluster.build().with_warehouse(interval=10.0).create()

    def test_warehouse_over_replication(self):
        cluster = (
            Cluster.build(seed=5)
            .with_replicas(2, mode="master_slave", ship_interval=10.0)
            .with_warehouse(interval=30.0)
            .create()
        )
        cluster.replication.write_insert("report", "today", {"revenue": 6})
        cluster.sim.run(until=35.0)
        assert cluster.warehouse.get("report", "today").fields["revenue"] == 6

    def test_tracing_wires_everything(self):
        cluster = (
            Cluster.build(seed=1)
            .with_replicas(2)
            .with_tracing()
            .create()
        )
        assert cluster.sim.tracer is cluster.tracer
        assert cluster.network.tracer is cluster.tracer
        assert cluster.store.tracer is cluster.tracer
        assert cluster.network.metrics is cluster.metrics

    def test_read_without_surface_raises(self):
        cluster = Cluster.build().create()
        with pytest.raises(RuntimeError):
            cluster.read("order", "o-1")


class TestLegacyConstructors:
    """The builder is a facade: hand-wiring stays fully supported."""

    def test_hand_wired_async_pair(self):
        sim = Simulator(seed=3)
        net = Network(sim, latency=5.0)
        pair = MasterSlaveGroup(
            sim, net, "primary", ["backup"], ship_interval=10.0,
            batching=BatchPolicy(),
        )
        pair.write_insert("order", "o-1", {"total": 9})
        sim.run(until=30.0)
        assert pair.read_at("backup", "order", "o-1").fields["total"] == 9

    def test_legacy_node_addressed_read(self):
        sim = Simulator(seed=3)
        net = Network(sim, latency=1.0)
        group = MasterSlaveGroup(
            sim, net, "master", ["slave"], ship_interval=5.0,
            batching=BatchPolicy(),
        )
        group.write_insert("order", "o-1", {"total": 4})
        sim.run(until=20.0)
        # Three-positional form still addresses an explicit replica.
        assert group.read_at("master", "order", "o-1").fields["total"] == 4
        assert group.read_at("slave", "order", "o-1").fields["total"] == 4


class TestReadProtocol:
    def test_consistency_routes_master_slave(self):
        cluster = (
            Cluster.build(seed=2)
            .with_network(latency=1.0)
            .with_replicas(2, mode="master_slave", ship_interval=10.0)
            .create()
        )
        cluster.replication.write_insert("order", "o-1", {"total": 4})
        # Before shipping: the master has it, the slave does not.
        assert cluster.read(
            "order", "o-1", request=ReadRequest.strong()
        ).fields["total"] == 4
        assert cluster.read(
            "order", "o-1",
            request=ReadRequest(level=ConsistencyLevel.BOUNDED_STALENESS),
        ).unwrap() is None
        cluster.sim.run(until=30.0)
        assert cluster.read(
            "order", "o-1",
            request=ReadRequest(level=ConsistencyLevel.BOUNDED_STALENESS),
        ).fields["total"] == 4

    def test_store_implements_protocol(self):
        store = LSDBStore()
        store.insert("order", "o-1", {"total": 1})
        assert isinstance(store, ReadSurface)
        assert store.read("order", "o-1").fields["total"] == 1
        # The deprecated loose keyword finished its cycle: it now fails
        # like any unknown keyword instead of being quietly accepted.
        with pytest.raises(TypeError):
            store.read("order", "o-1", consistency=ConsistencyLevel.STRONG)

    def test_builder_round_trips_all_modes(self):
        for mode, count in (
            ("sync", 2),
            ("master_slave", 2),
            ("active_active", 2),
            ("quorum", 3),
        ):
            builder = Cluster.build(seed=4).with_replicas(count, mode=mode)
            cluster = builder.create()
            assert isinstance(builder, ClusterBuilder)
            assert cluster.replication is not None
            assert cluster.store is not None


class TestChaosAndPolicyDeclarations:
    def test_with_chaos_builds_an_engine(self):
        from repro.chaos import ChaosEngine

        cluster = (
            Cluster.build(seed=5)
            .with_replicas(3, mode="active_active")
            .with_chaos(profile="light")
            .create()
        )
        assert isinstance(cluster.chaos, ChaosEngine)
        assert cluster.chaos.profile.name == "light"

    def test_with_chaos_implies_a_network(self):
        cluster = Cluster.build(seed=5).with_chaos().create()
        assert cluster.network is not None
        assert cluster.chaos is not None

    def test_with_chaos_private_seed_pins_schedule(self):
        def plan(chaos_seed):
            cluster = (
                Cluster.build(seed=1)
                .with_replicas(3, mode="active_active")
                .with_chaos(seed=chaos_seed)
                .create()
            )
            return cluster.chaos.plan(1000.0)

        assert plan(99) == plan(99)
        assert plan(99) != plan(100)

    def test_with_policies_flows_into_queue_and_schemes(self):
        from repro.core.policy import RetryPolicy, TimeoutPolicy

        retry = RetryPolicy.exponential(max_attempts=3, base_delay=5.0)
        timeout = TimeoutPolicy(per_attempt=40.0, overall=200.0)
        cluster = (
            Cluster.build(seed=5)
            .with_replicas(3, mode="quorum")
            .with_queue()
            .with_policies(retry=retry, timeout=timeout)
            .create()
        )
        assert cluster.queue.retry_policy is retry
        assert cluster.queue.timeout_policy is timeout
        assert cluster.replication.retry_policy is retry
        assert cluster.replication.timeout_policy is timeout
        assert cluster.retry_policy is retry

    def test_explicit_component_policy_beats_cluster_default(self):
        from repro.core.policy import RetryPolicy

        cluster_default = RetryPolicy.fixed(max_attempts=9, delay=1.0)
        queue_specific = RetryPolicy.fixed(max_attempts=2, delay=3.0)
        cluster = (
            Cluster.build(seed=5)
            .with_queue(retry=queue_specific)
            .with_policies(retry=cluster_default)
            .create()
        )
        assert cluster.queue.retry_policy is queue_specific


class TestElasticCluster:
    """with_ring / scale_out / scale_in on the builder facade."""

    def make_cluster(self, *, seed=11, units=("u1", "u2", "u3", "u4")):
        cluster = (
            Cluster.build(seed=seed)
            .with_ring(*units, vnodes=32, batch_size=8)
            .create()
        )
        for index in range(60):
            key = f"k{index}"
            owner = cluster.directory.unit_for("order", key)
            cluster.units[owner].store.insert("order", key, {"n": index})
        return cluster

    def test_with_ring_wires_the_elastic_stack(self):
        from repro.partition import (
            ConsistentHashRing,
            DynamicDirectory,
            EntityMover,
            Rebalancer,
        )

        cluster = self.make_cluster()
        assert isinstance(cluster.ring, ConsistentHashRing)
        assert isinstance(cluster.directory, DynamicDirectory)
        assert isinstance(cluster.mover, EntityMover)
        assert isinstance(cluster.rebalancer, Rebalancer)
        assert cluster.directory.base is cluster.ring
        assert set(cluster.units) == {"u1", "u2", "u3", "u4"}

    def test_scale_out_relocates_and_compacts(self):
        cluster = self.make_cluster()
        run = cluster.scale_out("u5")
        run.wait()
        assert run.done
        assert "u5" in cluster.ring
        assert "u5" in cluster.units
        assert run.report.completed == run.report.planned
        assert run.report.failed == 0
        assert cluster.directory.override_count == 0
        for index in range(60):
            key = f"k{index}"
            owner = cluster.directory.unit_for("order", key)
            assert cluster.units[owner].store.get("order", key).fields["n"] == index

    def test_scale_out_moves_a_minority_of_keys(self):
        cluster = self.make_cluster()
        run = cluster.scale_out("u5")
        run.wait()
        # Consistent hashing: ~1/(N+1) of keys move, never a reshuffle.
        assert 0 < run.report.completed <= 60 * 2 // 5

    def test_scale_in_drains_the_unit(self):
        cluster = self.make_cluster()
        run = cluster.scale_in("u4")
        run.wait()
        assert run.done
        assert "u4" not in cluster.ring
        assert "u4" not in cluster.units
        assert "u4" in cluster.retired_units
        for index in range(60):
            key = f"k{index}"
            owner = cluster.directory.unit_for("order", key)
            assert owner != "u4"
            assert cluster.units[owner].store.get("order", key).fields["n"] == index

    def test_scale_out_duplicate_unit_rejected(self):
        cluster = self.make_cluster()
        with pytest.raises(ValueError):
            cluster.scale_out("u1")

    def test_scale_in_unknown_unit_rejected(self):
        cluster = self.make_cluster()
        with pytest.raises(KeyError):
            cluster.scale_in("u99")

    def test_scale_out_without_ring_raises(self):
        cluster = Cluster.build(seed=1).with_partition_units("u1", "u2").create()
        with pytest.raises(RuntimeError):
            cluster.scale_out("u3")

    def test_scale_out_on_done_callback_fires(self):
        cluster = self.make_cluster()
        seen = []
        run = cluster.scale_out("u5", on_done=lambda r: seen.append(r))
        run.wait()
        assert seen and seen[0] is run
