"""Tests for the unified fault-tolerance policy API (repro.core.policy)."""

import warnings

import pytest

from repro.core.policy import Deadline, RetryBudget, RetryPolicy, TimeoutPolicy
from repro.errors import (
    DeadlineExceeded,
    FaultToleranceError,
    RetryBudgetExhausted,
    RetryExhausted,
)
from repro.sim.rng import SeededRNG


class TestRetryPolicy:
    def test_fixed_backoff_is_constant(self):
        policy = RetryPolicy.fixed(max_attempts=4, delay=7.5)
        assert [policy.delay(n) for n in (1, 2, 3)] == [7.5, 7.5, 7.5]

    def test_exponential_backoff_doubles(self):
        policy = RetryPolicy.exponential(base_delay=2.0, multiplier=2.0)
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == [2.0, 4.0, 8.0, 16.0]

    def test_exponential_backoff_clamped_by_max_delay(self):
        policy = RetryPolicy.exponential(base_delay=10.0, max_delay=25.0)
        assert policy.delay(5) == 25.0

    def test_jitter_draws_from_given_rng_and_shrinks_delay(self):
        policy = RetryPolicy.fixed(delay=10.0).with_jitter(0.5)
        rng = SeededRNG(1)
        delays = {policy.delay(1, rng) for _ in range(20)}
        assert len(delays) > 1  # jitter actually varies
        assert all(5.0 <= d <= 10.0 for d in delays)

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy.fixed(delay=10.0).with_jitter(0.5)
        rng_a, rng_b = SeededRNG(9), SeededRNG(9)
        a = [policy.delay(1, rng_a) for _ in range(5)]
        b = [policy.delay(1, rng_b) for _ in range(5)]
        # Same seed, same stream position, same jittered delays.
        assert a == b
        assert len(set(a)) > 1  # and the stream does vary over draws

    def test_allows_retry_caps_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows_retry(1)
        assert policy.allows_retry(2)
        assert not policy.allows_retry(3)

    def test_none_policy_never_retries(self):
        assert not RetryPolicy.none().allows_retry(1)

    def test_trivial_detection(self):
        assert RetryPolicy.fixed(delay=5.0).is_trivial
        assert not RetryPolicy.exponential(base_delay=5.0).is_trivial
        assert not RetryPolicy.fixed(delay=5.0).with_jitter(0.1).is_trivial

    def test_check_exhausted_raises_retry_exhausted(self):
        policy = RetryPolicy(max_attempts=2)
        with pytest.raises(RetryExhausted) as excinfo:
            policy.check_exhausted(2, reason="unit-test")
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value, FaultToleranceError)


class TestRetryBudget:
    def test_budget_exhaustion_stops_retries_across_operations(self):
        budget = RetryBudget(total=3)
        policy = RetryPolicy(max_attempts=10).with_budget(budget)
        granted = [policy.allows_retry(1) for _ in range(5)]
        # Only the first three grants spend budget; the rest are denied
        # even though max_attempts would allow them.
        assert granted == [True, True, True, False, False]
        assert budget.remaining == 0

    def test_budget_exhaustion_raises_specific_error(self):
        budget = RetryBudget(total=0)
        policy = RetryPolicy(max_attempts=5).with_budget(budget)
        assert not policy.allows_retry(1)
        with pytest.raises(RetryBudgetExhausted):
            policy.check_exhausted(1, reason="budget")


class TestTimeoutPolicyAndDeadline:
    def test_start_stamps_absolute_deadline(self):
        policy = TimeoutPolicy(per_attempt=10.0, overall=50.0)
        deadline = policy.start(now=100.0)
        assert deadline.at == 150.0

    def test_attempt_timeout_clamped_to_deadline(self):
        policy = TimeoutPolicy(per_attempt=30.0, overall=100.0)
        deadline = policy.start(now=0.0)
        assert policy.attempt_timeout(deadline, now=0.0) == 30.0
        assert policy.attempt_timeout(deadline, now=90.0) == 10.0

    def test_unbounded_policy_yields_no_waits(self):
        policy = TimeoutPolicy.none()
        deadline = policy.start(now=5.0)
        assert deadline.at is None
        assert policy.attempt_timeout(deadline, now=5.0) is None

    def test_deadline_check_raises_after_expiry(self):
        deadline = Deadline(at=10.0)
        deadline.check(now=10.0, what="op")  # boundary is still alive
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check(now=10.5, what="op")
        assert excinfo.value.deadline == 10.0
        assert isinstance(excinfo.value, TimeoutError)  # stdlib-compatible

    def test_unset_deadline_never_expires(self):
        deadline = Deadline()
        assert not deadline.expired(1e12)
        assert deadline.remaining(1e12) == float("inf")


class TestRemovedLegacyKwargs:
    """Satellite: the PR 3 deprecation cycle is complete — the legacy
    retry/timeout kwargs are gone, and so are the read-only properties
    of those names: the policy objects are the one place to look."""

    def test_queue_legacy_kwargs_removed(self):
        from repro.queues.reliable import ReliableQueue
        from repro.sim.scheduler import Simulator

        with pytest.raises(TypeError):
            ReliableQueue(Simulator(), redelivery_timeout=3.0, max_attempts=7)

    def test_queue_legacy_properties_survive(self):
        from repro.queues.reliable import ReliableQueue
        from repro.sim.scheduler import Simulator

        queue = ReliableQueue(
            Simulator(), retry=RetryPolicy(max_attempts=7, base_delay=3.0)
        )
        assert queue.retry_policy.base_delay == 3.0
        assert queue.retry_policy.max_attempts == 7
        assert not hasattr(queue, "redelivery_timeout")

    def test_sync_replication_ack_timeout_removed(self):
        from repro.core.policy import TimeoutPolicy
        from repro.replication.synchronous import SyncPrimaryBackup
        from repro.sim.network import Network
        from repro.sim.scheduler import Simulator

        sim = Simulator()
        with pytest.raises(TypeError):
            SyncPrimaryBackup(sim, Network(sim), ack_timeout=40.0)
        pair = SyncPrimaryBackup(
            sim, Network(sim), timeout=TimeoutPolicy(per_attempt=40.0)
        )
        assert pair.timeout_policy.per_attempt == 40.0
        assert not hasattr(pair, "ack_timeout")

    def test_quorum_float_timeout_removed(self):
        from repro.core.policy import TimeoutPolicy
        from repro.replication.quorum import QuorumGroup
        from repro.sim.network import Network
        from repro.sim.scheduler import Simulator

        sim = Simulator()
        with pytest.raises(TypeError):
            QuorumGroup(sim, Network(sim), ["a", "b", "c"], timeout=33.0)
        group = QuorumGroup(
            sim, Network(sim), ["a", "b", "c"],
            timeout=TimeoutPolicy(per_attempt=33.0),
        )
        assert group.timeout_policy.per_attempt == 33.0
        assert not hasattr(group, "timeout")

    def test_twopc_vote_timeout_removed(self):
        from repro.core.policy import TimeoutPolicy
        from repro.locks.two_pc import TwoPCCoordinator

        with pytest.raises(TypeError):
            TwoPCCoordinator("c", vote_timeout=25.0)
        coordinator = TwoPCCoordinator(
            "c", timeout=TimeoutPolicy(per_attempt=25.0)
        )
        assert coordinator.timeout_policy.per_attempt == 25.0
        assert not hasattr(coordinator, "vote_timeout")
