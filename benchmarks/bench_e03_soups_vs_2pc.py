"""E3 — Focused (single-entity) transactions vs distributed 2PC.

Paper claim (principles 2.5/2.6): "When entities from two different
organizational units are accessed in the same transaction, a
distributed (two-phase commit) transaction is required, which impacts
performance and availability"; following SOUPS "avoids commits across
multiple units".

Scenario: two serialization units behind a network.  A stream of order
transactions arrives; a fraction ``cross_fraction`` of them touch
entities on both units.  Single-unit transactions commit locally (one
log slot); cross-unit transactions run textbook 2PC over the network.
We sweep the cross-unit fraction and report mean commit latency and
throughput; the 2PC path also reports in-doubt blocking when a crash is
injected.
"""

from __future__ import annotations

from repro.bench.report import ExperimentReport
from repro.locks.two_pc import TwoPCCoordinator, TwoPCParticipant
from repro.obs.metrics import Histogram
from repro.partition.units import SerializationUnit
from repro.sim.network import Network
from repro.sim.scheduler import Simulator

TRANSACTIONS = 200
ARRIVAL_INTERVAL = 2.0
NETWORK_LATENCY = 5.0
LOCAL_COMMIT_COST = 1.0


def run_mix(cross_fraction: float, seed: int = 0) -> dict[str, float]:
    sim = Simulator(seed=seed)
    net = Network(sim, latency=NETWORK_LATENCY)
    units = [
        SerializationUnit("u1", sim, local_commit_cost=LOCAL_COMMIT_COST),
        SerializationUnit("u2", sim, local_commit_cost=LOCAL_COMMIT_COST),
    ]
    coordinator = net.register(TwoPCCoordinator("coord"))
    for unit in units:
        net.register(TwoPCParticipant(f"{unit.name}-rm"))
    rng = sim.fork_rng()
    latency = Histogram("latency", {})
    completed = {"count": 0, "last_at": 0.0}

    def finish(started_at: float) -> None:
        latency.record(sim.now - started_at)
        completed["count"] += 1
        completed["last_at"] = sim.now

    for index in range(TRANSACTIONS):
        at = ARRIVAL_INTERVAL * index
        is_cross = rng.random() < cross_fraction

        def submit(bound_index=index, bound_cross=is_cross):
            started = sim.now
            if bound_cross:
                coordinator.begin(
                    f"tx-{bound_index}",
                    ["u1-rm", "u2-rm"],
                    on_complete=lambda _result: finish(started),
                )
            else:
                unit = units[bound_index % 2]
                unit.store.insert("order", f"o{bound_index}", {"n": 1})
                done_at = unit.next_commit_slot()
                sim.schedule_at(done_at, lambda: finish(started))

        sim.schedule_at(at, submit)
    sim.run()
    duration = completed["last_at"] or 1.0
    return {
        "mean_latency": latency.mean,
        "p99_latency": latency.percentile(99),
        "throughput": completed["count"] / duration,
    }


def run_blocking_probe() -> float:
    """Crash the coordinator mid-protocol and report how long a
    prepared participant stays in doubt (the availability impact)."""
    sim = Simulator()
    net = Network(sim, latency=NETWORK_LATENCY)
    coordinator = net.register(TwoPCCoordinator("coord"))
    participant = net.register(TwoPCParticipant("u1-rm"))
    net.register(TwoPCParticipant("u2-rm"))
    coordinator.begin("tx-blocked", ["u1-rm", "u2-rm"])
    # Crash after prepares land but before the decision does.
    sim.schedule_at(NETWORK_LATENCY + 1.0, coordinator.crash)
    sim.run(until=500.0)
    became_in_doubt = participant.in_doubt.get("tx-blocked")
    return sim.now - became_in_doubt if became_in_doubt is not None else 0.0


def sweep() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E3",
        title="SOUPS single-entity commits vs distributed 2PC",
        claim=(
            "cross-unit transactions pay two network round trips per "
            "commit and can block in doubt; single-entity transactions "
            "commit in one local log slot (2.5/2.6)"
        ),
        headers=[
            "cross_fraction",
            "mean_latency",
            "p99_latency",
            "throughput",
        ],
        notes=(
            "latency climbs with the cross-unit fraction toward the 2PC "
            "floor of 4x network latency; at fraction 0 the workload runs "
            "at the local commit cost"
        ),
    )
    for cross_fraction in (0.0, 0.1, 0.2, 0.5, 1.0):
        metrics = run_mix(cross_fraction)
        report.add_row(
            cross_fraction,
            metrics["mean_latency"],
            metrics["p99_latency"],
            metrics["throughput"],
        )
    blocked = run_blocking_probe()
    report.notes += (
        f"; coordinator crash left a prepared participant in doubt for "
        f"{blocked:.0f} time units (availability impact)"
    )
    return report


def test_e03_soups_vs_2pc(benchmark):
    all_local = benchmark(run_mix, 0.0)
    all_cross = run_mix(1.0)
    # Local commits cost one log slot; 2PC pays 4 network hops.
    assert all_local["mean_latency"] <= LOCAL_COMMIT_COST + 1e-9
    assert all_cross["mean_latency"] >= 4 * NETWORK_LATENCY - 1e-9
    # And the blocking hazard is real:
    assert run_blocking_probe() > 100.0


if __name__ == "__main__":
    sweep().print()
