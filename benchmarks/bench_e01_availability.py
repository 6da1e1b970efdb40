"""E1 — Availability under partition: eventual vs strong replication.

Paper claim (section 1, principle 2.11): eventually consistent
replication keeps business services available through network
partitions; strongly consistent replication must refuse operations that
cannot reach the other side (CAP).

Scenario: clients submit writes at a steady rate over a 120-unit window;
a partition splits the replicas for ``duration`` units in the middle.
Three schemes handle the same workload:

* ``active/active`` — subjective writes at either replica (eventual);
* ``quorum``        — majority-quorum writes (strong);
* ``sync-backup``   — commit waits for the backup's ack (strong
  durability).

Metric: fraction of writes *issued during the partition* that succeed.
"""

from __future__ import annotations

from repro.bench.report import ExperimentReport
from repro.core.policy import TimeoutPolicy
from repro.merge.deltas import Delta
from repro.obs.metrics import AvailabilityProbe
from repro.replication import ActiveActiveGroup, QuorumGroup, SyncPrimaryBackup
from repro.sim.network import Network
from repro.sim.scheduler import Simulator

WINDOW = 120.0
PARTITION_START = 30.0
WRITE_INTERVAL = 2.0
LATENCY = 2.0


def _arrival_times():
    count = int(WINDOW / WRITE_INTERVAL)
    return [WRITE_INTERVAL * index for index in range(1, count)]


def run_active_active(partition_duration: float, seed: int = 0) -> float:
    sim = Simulator(seed=seed)
    net = Network(sim, latency=LATENCY)
    group = ActiveActiveGroup(sim, net, ["r1", "r2"], anti_entropy_interval=10.0)
    probe = AvailabilityProbe()
    partition_end = PARTITION_START + partition_duration

    if partition_duration > 0:
        sim.schedule_at(PARTITION_START, lambda: net.partition_into({"r1"}, {"r2"}))
        sim.schedule_at(partition_end, net.heal)

    for index, at in enumerate(_arrival_times()):
        replica = "r1" if index % 2 == 0 else "r2"

        def write(bound_replica=replica, bound_at=at):
            during = PARTITION_START <= bound_at < partition_end
            group.write_delta(bound_replica, "stock", "w", Delta.add("n", 1))
            probe.record(True, during_failure=during)  # subjective: always accepted

        sim.schedule_at(at, write)
    sim.run(until=WINDOW + 200.0)
    return probe.availability_during_failure


def run_quorum(partition_duration: float, seed: int = 0) -> float:
    sim = Simulator(seed=seed)
    net = Network(sim, latency=LATENCY)
    group = QuorumGroup(
        sim, net, ["q1", "q2", "q3"], timeout=TimeoutPolicy(per_attempt=20.0)
    )
    probe = AvailabilityProbe()
    partition_end = PARTITION_START + partition_duration

    if partition_duration > 0:
        sim.schedule_at(
            PARTITION_START,
            lambda: net.partition_into({"quorum-coordinator", "q1"}, {"q2", "q3"}),
        )
        sim.schedule_at(partition_end, net.heal)

    for at in _arrival_times():
        def write(bound_at=at):
            during = PARTITION_START <= bound_at < partition_end
            group.write(
                "stock", "w", {"n": 1},
                on_done=lambda outcome, d=during: probe.record(
                    outcome.ok, during_failure=d
                ),
            )

        sim.schedule_at(at, write)
    sim.run(until=WINDOW + 200.0)
    return probe.availability_during_failure


def run_sync_backup(partition_duration: float, seed: int = 0) -> float:
    sim = Simulator(seed=seed)
    net = Network(sim, latency=LATENCY)
    pair = SyncPrimaryBackup(sim, net, timeout=TimeoutPolicy(per_attempt=20.0))
    probe = AvailabilityProbe()
    partition_end = PARTITION_START + partition_duration

    if partition_duration > 0:
        sim.schedule_at(
            PARTITION_START,
            lambda: net.partition_into(
                {pair.primary.node_id}, {pair.backup.node_id}
            ),
        )
        sim.schedule_at(partition_end, net.heal)

    for index, at in enumerate(_arrival_times()):
        def write(bound_at=at, bound_index=index):
            during = PARTITION_START <= bound_at < partition_end
            pair.write_insert(
                "order", f"o{bound_index}", {"n": 1},
                on_done=lambda result, d=during: probe.record(
                    result.ok, during_failure=d
                ),
            )

        sim.schedule_at(at, write)
    sim.run(until=WINDOW + 200.0)
    return probe.availability_during_failure


def sweep() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E1",
        title="Availability under partition",
        claim=(
            "eventual (active/active) replication stays available through "
            "partitions; quorum and sync-backup writes fail while "
            "partitioned (CAP, sections 1 & 2.11)"
        ),
        headers=[
            "partition_duration",
            "active_active_avail",
            "quorum_avail",
            "sync_backup_avail",
        ],
        notes=(
            "availability measured over writes issued during the partition "
            "window only; 1.0 when no partition"
        ),
    )
    for duration in (0.0, 20.0, 40.0, 60.0):
        report.add_row(
            duration,
            run_active_active(duration),
            run_quorum(duration),
            run_sync_backup(duration),
        )
    return report


def test_e01_availability(benchmark):
    availability = benchmark(run_active_active, 40.0)
    assert availability == 1.0  # the eventual scheme never refuses
    assert run_quorum(40.0) < 0.5  # strong schemes lose availability
    assert run_sync_backup(40.0) < 0.5


if __name__ == "__main__":
    sweep().print()
