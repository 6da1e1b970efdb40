"""Failure-injection tests: behaviour through crashes and partitions.

Principle 2.11 demands that "business transactions and processes should
always work, even if/when data is not fully consistent".  These tests
crash and partition components mid-protocol and assert the system's
documented degradation and recovery behaviour.
"""

from __future__ import annotations

import pytest

from repro.merge.deltas import Delta
from repro.core.policy import TimeoutPolicy
from repro.replication.batching import BatchPolicy
from repro.replication import (
    ActiveActiveGroup,
    MasterSlaveGroup,
    QuorumGroup,
    SyncPrimaryBackup,
)
from repro.sim.failure import FailureInjector
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


def world(latency=2.0, seed=0, loss=0.0):
    sim = Simulator(seed=seed)
    return sim, Network(sim, latency=latency, loss_probability=loss)


def backup_group(sim, net, ship_interval, slaves=1):
    return MasterSlaveGroup(
        sim, net, "primary", [f"backup-{i}" for i in range(1, slaves + 1)],
        ship_interval=ship_interval, batching=BatchPolicy(),
    )


class TestAsyncReplicationFailures:
    @pytest.mark.parametrize("slaves", [1, 2])
    def test_primary_crash_during_lag_loses_exact_tail(self, slaves):
        sim, net = world()
        pair = backup_group(sim, net, ship_interval=50.0, slaves=slaves)
        pair.write_insert("o", "o1", {}, tx_id="t1")
        sim.run(until=60.0)  # first shipping round done
        pair.write_insert("o", "o2", {}, tx_id="t2")
        pair.write_insert("o", "o3", {}, tx_id="t3")
        report = pair.failover()  # crash before the next round
        assert report.lost_tx_ids == ["t2", "t3"]
        # Every backup still has everything from the shipped prefix.
        for backup in pair.slaves.values():
            assert backup.store.get("o", "o1") is not None
        # The failover stopped the shipping loop: nothing is left to run.
        sim.run(until=300.0)
        assert sim.pending == 0

    def test_backup_crash_window_heals_via_reprobe(self):
        sim, net = world()
        pair = backup_group(sim, net, ship_interval=10.0)
        injector = FailureInjector(sim, net)
        injector.crash_window(pair.slaves["backup-1"], start=5.0, duration=30.0)
        pair.write_insert("o", "o1", {})
        sim.run(until=120.0)
        # The shipping loop's idempotent reprobe catches the backup up
        # after recovery.
        assert pair.read_at("backup-1", "o", "o1") is not None
        assert pair.replication_lag_events == 0


class TestSyncReplicationFailures:
    def test_backup_crash_fails_writes_then_recovers(self):
        sim, net = world()
        pair = SyncPrimaryBackup(sim, net, timeout=TimeoutPolicy(per_attempt=20.0))
        injector = FailureInjector(sim, net)
        injector.crash_window(pair.backup, start=0.0, duration=50.0)
        pair.write_insert("o", "down", {})
        sim.run(until=60.0)
        assert pair.failed_writes == 1
        pair.write_insert("o", "up", {})
        sim.run()
        assert pair.results[-1].ok

    def test_partition_mid_write_times_out(self):
        sim, net = world(latency=10.0)
        pair = SyncPrimaryBackup(sim, net, timeout=TimeoutPolicy(per_attempt=15.0))
        pair.write_insert("o", "o1", {})
        # Partition before the replicate message lands (latency 10).
        sim.schedule_at(
            5.0,
            lambda: net.partition_into(
                {pair.primary.node_id}, {pair.backup.node_id}
            ),
        )
        sim.run()
        assert pair.failed_writes == 1


class TestActiveActiveFailures:
    def test_crashed_replica_catches_up_after_recovery(self):
        sim, net = world()
        group = ActiveActiveGroup(sim, net, ["r1", "r2", "r3"],
                                  anti_entropy_interval=10.0)
        injector = FailureInjector(sim, net)
        crashed = group.replicas["r3"]
        injector.crash_window(crashed, start=0.0, duration=50.0)
        for index in range(5):
            group.write_delta("r1", "stock", "w", Delta.add("n", 1))
        sim.run(until=40.0)
        assert crashed.store.get("stock", "w") is None
        sim.run(until=200.0)
        assert group.is_converged()
        assert crashed.store.get("stock", "w").fields["n"] == 5

    def test_repeated_partitions_still_converge(self):
        sim, net = world(seed=4)
        group = ActiveActiveGroup(sim, net, ["r1", "r2"],
                                  anti_entropy_interval=8.0)
        injector = FailureInjector(sim, net)
        for start in (10.0, 50.0, 90.0):
            injector.partition_window([["r1"], ["r2"]], start=start, duration=20.0)
        for index in range(12):
            replica = "r1" if index % 2 == 0 else "r2"
            sim.schedule_at(
                10.0 * index,
                lambda bound=replica: group.write_delta(
                    bound, "stock", "w", Delta.add("n", 1)
                ),
            )
        sim.run(until=600.0)
        assert group.is_converged()
        assert group.read_at("r1", "stock", "w").fields["n"] == 12

    def test_writes_during_own_partition_survive(self):
        """A partitioned minority replica's accepted writes are not lost
        when it rejoins — subjective commits are durable commitments."""
        sim, net = world()
        group = ActiveActiveGroup(sim, net, ["r1", "r2", "r3"],
                                  anti_entropy_interval=10.0)
        net.partition_into({"r1"}, {"r2", "r3"})
        group.write_delta("r1", "stock", "w", Delta.add("n", 7))
        sim.run(until=30.0)
        net.heal()
        sim.run(until=100.0)
        for replica_id in ("r2", "r3"):
            assert group.read_at(replica_id, "stock", "w").fields["n"] == 7


class TestQuorumFailures:
    def test_exactly_minority_crash_is_tolerated(self):
        sim, net = world()
        group = QuorumGroup(
            sim, net, ["q1", "q2", "q3", "q4", "q5"],
            timeout=TimeoutPolicy(per_attempt=30.0),
        )
        group.replicas[0].crash()
        group.replicas[1].crash()
        group.write("stock", "w", {"n": 1})
        sim.run()
        assert group.outcomes[0].ok  # 3 of 5 still reachable

    def test_majority_crash_blocks_writes(self):
        sim, net = world()
        group = QuorumGroup(
            sim, net, ["q1", "q2", "q3", "q4", "q5"],
            timeout=TimeoutPolicy(per_attempt=30.0),
        )
        for replica in group.replicas[:3]:
            replica.crash()
        group.write("stock", "w", {"n": 1})
        sim.run()
        assert not group.outcomes[0].ok

    def test_recovered_majority_resumes_service(self):
        sim, net = world()
        group = QuorumGroup(
            sim, net, ["q1", "q2", "q3"], timeout=TimeoutPolicy(per_attempt=30.0)
        )
        injector = FailureInjector(sim, net)
        injector.crash_window(group.replicas[0], start=0.0, duration=40.0)
        injector.crash_window(group.replicas[1], start=0.0, duration=40.0)
        group.write("stock", "w", {"n": 1})
        sim.run(until=45.0)  # past the crash window
        assert not group.outcomes[0].ok
        group.write("stock", "w", {"n": 2})
        sim.run()
        assert group.outcomes[1].ok


class TestMasterSlaveFailures:
    def test_slave_crash_window_catches_up(self):
        sim, net = world()
        group = MasterSlaveGroup(
            sim, net, "m", ["s1"], ship_interval=10.0, batching=BatchPolicy()
        )
        injector = FailureInjector(sim, net)
        injector.crash_window(group.slaves["s1"], start=0.0, duration=35.0)
        group.write_insert("stock", "b", {"copies": 5})
        sim.run(until=30.0)
        assert group.read_at("s1", "stock", "b") is None
        sim.run(until=100.0)
        assert group.read_at("s1", "stock", "b").fields["copies"] == 5

    def test_master_reads_unaffected_by_slave_crash(self):
        sim, net = world()
        group = MasterSlaveGroup(sim, net, "m", ["s1"])
        group.slaves["s1"].crash()
        group.write_insert("stock", "b", {"copies": 5})
        assert group.read_at("m", "stock", "b").fields["copies"] == 5
