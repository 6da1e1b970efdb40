"""Tests for the replication schemes across the consistency spectrum."""

from __future__ import annotations

import pytest

from repro.core.consistency import ConsistencyLevel
from repro.merge.deltas import Delta
from repro.core.policy import TimeoutPolicy
from repro.replication.batching import BatchPolicy
from repro.replication.active_active import ActiveActiveGroup
from repro.replication.anti_entropy import AntiEntropy
from repro.replication.master_slave import MasterSlaveGroup
from repro.replication.quorum import QuorumGroup
from repro.replication.replica import ReplicaNode, converged
from repro.replication.synchronous import SyncPrimaryBackup
from repro.replication.warehouse import WarehouseExtract
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


def world(latency=2.0, seed=0):
    sim = Simulator(seed=seed)
    return sim, Network(sim, latency=latency)


class TestReplicaProtocol:
    def test_events_message_applies_idempotently(self):
        sim, net = world()
        a = net.register(ReplicaNode("a", sim))
        b = net.register(ReplicaNode("b", sim))
        a.store.insert("t", "k", {"v": 1})
        a.ship_events("b", a.store.events_since(0))
        a.ship_events("b", a.store.events_since(0))  # duplicate shipment
        sim.run()
        assert b.store.get("t", "k").fields["v"] == 1
        assert b.store.duplicates_rejected == 1

    def test_probe_fills_gaps(self):
        sim, net = world()
        a = net.register(ReplicaNode("a", sim))
        b = net.register(ReplicaNode("b", sim))
        a.store.insert("t", "k", {"v": 1})
        a.store.apply_delta("t", "k", Delta.add("v", 2))
        b.probe("a")  # "here's what I have" -> a ships the difference
        sim.run()
        assert b.store.get("t", "k").fields["v"] == 3

    def test_converged_predicate(self):
        sim, net = world()
        a = net.register(ReplicaNode("a", sim))
        b = net.register(ReplicaNode("b", sim))
        assert converged([a, b])
        a.store.insert("t", "k", {"v": 1})
        assert not converged([a, b])


def backup_group(sim, net, ship_interval, slaves=1):
    """The asynchronous primary-copy scheme: a master shipping its log to
    ``slaves`` followers (one slave is the classic primary/backup pair)."""
    return MasterSlaveGroup(
        sim, net, "primary", [f"backup-{i}" for i in range(1, slaves + 1)],
        ship_interval=ship_interval, batching=BatchPolicy(),
    )


class TestAsynchronousBackup:
    def test_writes_ack_immediately(self):
        sim, net = world()
        pair = backup_group(sim, net, ship_interval=10.0)
        acked_at = pair.write_insert("order", "o1", {"v": 1})
        assert acked_at == sim.now  # no waiting on the backup

    def test_backup_catches_up_after_interval(self):
        sim, net = world()
        pair = backup_group(sim, net, ship_interval=10.0)
        pair.write_insert("order", "o1", {"v": 1})
        assert pair.read_at("backup-1", "order", "o1") is None
        assert pair.replication_lag_events == 1
        sim.run(until=20.0)
        assert pair.read_at("backup-1", "order", "o1").fields["v"] == 1
        assert pair.replication_lag_events == 0

    def test_replication_lag_is_the_worst_slave(self):
        sim, net = world()
        group = backup_group(sim, net, ship_interval=10.0, slaves=2)
        net.partition_into({"primary", "backup-1"}, {"backup-2"})
        group.write_insert("order", "o1", {"v": 1})
        group.write_insert("order", "o2", {"v": 2})
        sim.run(until=20.0)
        assert group.slave_lag_events("backup-1") == 0
        assert group.slave_lag_events("backup-2") == 2
        assert group.replication_lag_events == 2
        net.heal()
        sim.run(until=40.0)
        assert group.replication_lag_events == 0

    @pytest.mark.parametrize("slaves", [1, 2])
    def test_failover_loses_unshipped_tail(self, slaves):
        sim, net = world()
        pair = backup_group(sim, net, ship_interval=100.0, slaves=slaves)
        for index in range(3):
            pair.write_insert("order", f"o{index}", {}, tx_id=f"t{index}")
        report = pair.failover()  # before any shipping round
        assert report.lost_events == 3
        assert report.lost_tx_ids == ["t0", "t1", "t2"]
        assert pair.master.crashed
        assert pair.failovers == [report]

    @pytest.mark.parametrize("slaves", [1, 2])
    def test_no_loss_after_shipping(self, slaves):
        sim, net = world()
        pair = backup_group(sim, net, ship_interval=5.0, slaves=slaves)
        pair.write_insert("order", "o1", {}, tx_id="t1")
        sim.run(until=20.0)
        assert pair.failover().lost_events == 0


class TestSyncPrimaryBackup:
    def test_ack_waits_for_backup_round_trip(self):
        sim, net = world(latency=7.0)
        pair = SyncPrimaryBackup(sim, net)
        pair.write_insert("order", "o1", {"v": 1})
        sim.run()
        result = pair.results[0]
        assert result.ok
        assert result.latency == 14.0  # there and back

    def test_backup_holds_data_at_ack_time(self):
        sim, net = world()
        pair = SyncPrimaryBackup(sim, net)
        holder = {}

        def on_done(result):
            holder["backup_state"] = pair.backup.store.get("order", "o1")

        pair.write_insert("order", "o1", {"v": 1}, on_done=on_done)
        sim.run()
        assert holder["backup_state"].fields["v"] == 1  # zero lost tail

    def test_partition_makes_writes_fail(self):
        sim, net = world()
        pair = SyncPrimaryBackup(sim, net, timeout=TimeoutPolicy(per_attempt=50.0))
        net.partition_into({pair.primary.node_id}, {pair.backup.node_id})
        pair.write_insert("order", "o1", {"v": 1})
        sim.run()
        assert pair.failed_writes == 1

    def test_delta_write_supported(self):
        sim, net = world()
        pair = SyncPrimaryBackup(sim, net)
        pair.write_insert("acct", "a", {"bal": 0})
        pair.write_delta("acct", "a", Delta.add("bal", 5))
        sim.run()
        assert pair.backup.store.get("acct", "a").fields["bal"] == 5


class TestActiveActive:
    def test_eager_propagation_converges(self):
        sim, net = world()
        group = ActiveActiveGroup(sim, net, ["r1", "r2", "r3"])
        group.write_delta("r1", "stock", "w", Delta.add("n", 5))
        sim.run(until=30.0)
        assert group.is_converged()
        assert group.read_at("r3", "stock", "w").fields["n"] == 5

    def test_concurrent_deltas_from_all_replicas_sum(self):
        sim, net = world()
        group = ActiveActiveGroup(sim, net, ["r1", "r2", "r3"])
        for replica_id in ("r1", "r2", "r3"):
            group.write_delta(replica_id, "stock", "w", Delta.add("n", 1))
        sim.run(until=60.0)
        assert group.is_converged()
        assert group.read_at("r1", "stock", "w").fields["n"] == 3

    def test_available_and_divergent_under_partition(self):
        sim, net = world()
        group = ActiveActiveGroup(sim, net, ["r1", "r2"], anti_entropy_interval=10.0)
        net.partition_into({"r1"}, {"r2"})
        ack1 = group.write_delta("r1", "stock", "w", Delta.add("n", 1))
        ack2 = group.write_delta("r2", "stock", "w", Delta.add("n", 2))
        assert ack1 == sim.now and ack2 == sim.now  # both sides accept
        sim.run(until=30.0)
        assert not group.is_converged()
        assert group.divergence() > 0

    def test_anti_entropy_heals_after_partition(self):
        sim, net = world()
        group = ActiveActiveGroup(sim, net, ["r1", "r2"], anti_entropy_interval=10.0)
        net.partition_into({"r1"}, {"r2"})
        group.write_delta("r1", "stock", "w", Delta.add("n", 1))
        group.write_delta("r2", "stock", "w", Delta.add("n", 2))
        sim.run(until=30.0)
        net.heal()
        sim.run(until=100.0)
        assert group.is_converged()
        assert group.read_at("r1", "stock", "w").fields["n"] == 3

    def test_without_anti_entropy_lost_messages_never_repair(self):
        sim, net = world()
        group = ActiveActiveGroup(sim, net, ["r1", "r2"], anti_entropy_interval=0)
        net.partition_into({"r1"}, {"r2"})
        group.write_delta("r1", "stock", "w", Delta.add("n", 1))
        net.heal()
        sim.run(until=500.0)
        assert not group.is_converged()

    def test_lww_set_fields_converges_across_replicas(self):
        sim, net = world()
        group = ActiveActiveGroup(sim, net, ["r1", "r2"], anti_entropy_interval=10.0)
        group.write_set_fields("r1", "doc", "d", {"title": "from-r1"})
        sim.run(until=1.0)
        group.write_set_fields("r2", "doc", "d", {"title": "from-r2"})
        sim.run(until=100.0)
        assert group.is_converged()
        assert group.read_at("r1", "doc", "d").fields["title"] == "from-r2"

    def test_group_requires_two_replicas(self):
        sim, net = world()
        with pytest.raises(ValueError):
            ActiveActiveGroup(sim, net, ["solo"])


class TestQuorum:
    def test_write_then_read_sees_value(self):
        sim, net = world()
        group = QuorumGroup(sim, net, ["q1", "q2", "q3"])
        group.write("stock", "w", {"n": 7})
        sim.run()
        seen = []
        group.read("stock", "w", on_done=lambda o: seen.append(o))
        sim.run()
        assert seen[0].ok and seen[0].value == {"n": 7}

    def test_majority_default_quorums(self):
        sim, net = world()
        group = QuorumGroup(sim, net, ["q1", "q2", "q3", "q4", "q5"])
        assert group.write_quorum == 3 and group.read_quorum == 3

    def test_unavailable_under_partition(self):
        sim, net = world()
        group = QuorumGroup(
            sim, net, ["q1", "q2", "q3"], timeout=TimeoutPolicy(per_attempt=30.0)
        )
        net.partition_into({"quorum-coordinator", "q1"}, {"q2", "q3"})
        group.write("stock", "w", {"n": 1})
        sim.run()
        assert group.outcomes[0].ok is False
        assert group.outcomes[0].latency == 30.0  # waited the whole timeout

    def test_minority_crash_tolerated(self):
        sim, net = world()
        group = QuorumGroup(sim, net, ["q1", "q2", "q3"])
        group.replicas[0].crash()
        group.write("stock", "w", {"n": 1})
        sim.run()
        assert group.outcomes[0].ok

    def test_read_prefers_freshest_replica(self):
        sim, net = world()
        group = QuorumGroup(sim, net, ["q1", "q2", "q3"], read_quorum=3)
        group.write("stock", "w", {"n": 1})
        sim.run()
        # Write a newer value directly at one replica (simulating a
        # partially propagated write).
        group.replicas[0].store.set_fields("stock", "w", {"n": 2})
        seen = []
        group.read("stock", "w", on_done=lambda o: seen.append(o))
        sim.run()
        assert seen[0].value == {"n": 2}

    def test_oversized_quorum_rejected(self):
        sim, net = world()
        with pytest.raises(ValueError):
            QuorumGroup(sim, net, ["q1"], write_quorum=2)


class TestMasterSlave:
    def test_slave_reads_lag_by_ship_interval(self):
        sim, net = world()
        group = MasterSlaveGroup(
            sim, net, "m", ["s1"], ship_interval=10.0, batching=BatchPolicy()
        )
        group.write_insert("stock", "b", {"copies": 5})
        assert group.read_at("s1", "stock", "b") is None
        assert group.slave_lag_events("s1") == 1
        sim.run(until=20.0)
        assert group.read_at("s1", "stock", "b").fields["copies"] == 5
        assert group.slave_lag_events("s1") == 0

    def test_master_reads_are_fresh(self):
        sim, net = world()
        group = MasterSlaveGroup(sim, net, "m", ["s1"])
        group.write_insert("stock", "b", {"copies": 5})
        assert group.read_at("m", "stock", "b").fields["copies"] == 5

    def test_slave_rejects_updates(self):
        from repro.errors import NotMaster

        sim, net = world()
        group = MasterSlaveGroup(sim, net, "m", ["s1"])
        with pytest.raises(NotMaster):
            group.write_at("s1")
        assert group.rejected_writes == 1

    def test_multiple_slaves_each_catch_up(self):
        sim, net = world()
        group = MasterSlaveGroup(
            sim, net, "m", ["s1", "s2"], ship_interval=5.0, batching=BatchPolicy()
        )
        group.write_delta("stock", "b", Delta.add("copies", 3))
        sim.run(until=20.0)
        assert group.read_at("s1", "stock", "b").fields["copies"] == 3
        assert group.read_at("s2", "stock", "b").fields["copies"] == 3


class TestWarehouse:
    def test_queries_empty_before_first_extract(self, sim):
        store_sim, net = world()
        from repro.lsdb.store import LSDBStore

        store = LSDBStore(clock=lambda: store_sim.now)
        warehouse = WarehouseExtract(store_sim, store, interval=10.0)
        store.insert("order", "o1", {"total": 5})
        assert warehouse.get("order", "o1") is None
        assert warehouse.staleness == float("inf")

    def test_extract_snapshots_current_state(self):
        sim, _ = world()
        from repro.lsdb.store import LSDBStore

        store = LSDBStore(clock=lambda: sim.now)
        warehouse = WarehouseExtract(sim, store, interval=10.0)
        store.insert("order", "o1", {"total": 5})
        sim.run(until=10.0)
        assert warehouse.get("order", "o1").fields["total"] == 5
        store.insert("order", "o2", {"total": 7})
        assert warehouse.aggregate("order", "total") == 5  # still the old extract
        assert warehouse.lag_events == 1
        sim.run(until=20.0)
        assert warehouse.aggregate("order", "total") == 12

    def test_batched_extract_stamps_its_first_missing_write(self):
        """A batched extract that leaves rows for the next round has been
        behind since the first of them was written, not since it ran."""
        sim, _ = world()
        from repro.lsdb.store import LSDBStore

        store = LSDBStore(clock=lambda: sim.now)
        warehouse = WarehouseExtract(sim, store, interval=10.0, max_batch=4)
        for index in range(30):
            sim.schedule_at(
                index + 0.5,
                lambda: store.apply_delta("acct", "a", Delta.add("bal", 1)),
                label="w",
            )
        sim.run(until=25.0)
        # t=10: full extract of 10 rows; t=20: 4 of the next 10, so the
        # row written at t=14.5 is the oldest write the extract misses.
        assert warehouse.extracted_lsn == 14 and warehouse.lag_events == 11
        state, _level, staleness, _by, _site = warehouse.serve(
            "acct", "a", ConsistencyLevel.EXTRACT
        )
        assert state.fields == {"bal": 14}
        assert staleness == warehouse.staleness == 25.0 - 14.5

    def test_staleness_is_bounded_by_interval(self):
        sim, _ = world()
        from repro.lsdb.store import LSDBStore

        store = LSDBStore(clock=lambda: sim.now)
        warehouse = WarehouseExtract(sim, store, interval=10.0)
        sim.run(until=35.0)
        assert warehouse.staleness <= 10.0
        assert warehouse.extracts_taken == 3
