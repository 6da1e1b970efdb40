"""Determinism properties: equal seeds produce identical histories.

The entire experiment suite's reproducibility rests on this: a seeded
simulation is a pure function of its seed.  These properties run a
randomized distributed scenario twice per seed and require bit-equal
outcomes, and run *different* seeds to confirm the randomness is real.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.merge.deltas import Delta
from repro.core.policy import RetryPolicy
from repro.queues.idempotence import IdempotentReceiver
from repro.queues.reliable import ReliableQueue
from repro.replication import ActiveActiveGroup
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


def run_replicated_scenario(seed: int) -> tuple:
    """A lossy active/active run; returns its observable outcome."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=lambda rng: rng.uniform(1.0, 4.0),
                  loss_probability=0.2)
    group = ActiveActiveGroup(sim, net, ["r1", "r2", "r3"],
                              anti_entropy_interval=10.0)
    rng = sim.fork_rng()
    for index in range(30):
        replica = ["r1", "r2", "r3"][rng.randint(0, 2)]
        sim.schedule_at(
            float(index),
            lambda bound=replica: group.write_delta(
                bound, "stock", "k", Delta.add("n", 1)
            ),
        )
    sim.run(until=500.0)
    state = group.read_at("r1", "stock", "k")
    return (
        sim.processed,
        net.stats.sent,
        net.stats.delivered,
        net.stats.dropped_loss,
        state.fields["n"] if state else None,
        group.is_converged(),
    )


def run_queue_scenario(seed: int) -> tuple:
    """A lossy-ack queue run; returns delivery accounting."""
    sim = Simulator(seed=seed)
    queue = ReliableQueue(sim, ack_loss_probability=0.3,
                          retry=RetryPolicy(max_attempts=30, base_delay=1.0))
    receiver = IdempotentReceiver(lambda message: True)
    queue.subscribe("t", receiver)
    for _ in range(40):
        queue.enqueue("t", {})
    sim.run()
    return (
        queue.stats.delivered,
        queue.stats.redelivered,
        receiver.duplicates_skipped,
        sim.processed,
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_replicated_scenario_is_seed_deterministic(seed):
    assert run_replicated_scenario(seed) == run_replicated_scenario(seed)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_queue_scenario_is_seed_deterministic(seed):
    assert run_queue_scenario(seed) == run_queue_scenario(seed)


def test_different_seeds_differ_somewhere():
    """The randomness is real: across a handful of seeds the lossy
    network produces different traffic patterns."""
    outcomes = {run_replicated_scenario(seed) for seed in range(5)}
    assert len(outcomes) > 1


def test_convergence_holds_across_seeds():
    """Whatever the loss pattern, every seed converges to the same
    business value — determinism of the *outcome*, not just the run."""
    for seed in range(8):
        result = run_replicated_scenario(seed)
        assert result[-1] is True  # converged
        assert result[-2] == 30  # all 30 increments present
