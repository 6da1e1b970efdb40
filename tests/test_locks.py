"""Tests for logical locks, 2PL, and OCC."""

from __future__ import annotations

import pytest

from repro.errors import DeadlockDetected, ValidationFailed
from repro.locks.logical import LockMode, LogicalLockManager
from repro.locks.optimistic import OCCValidator
from repro.locks.two_phase import LockManager2PL


class TestLogicalLocks:
    def test_exclusive_blocks_others(self):
        locks = LogicalLockManager()
        assert locks.acquire("order/o1", "alice")
        assert not locks.acquire("order/o1", "bob")

    def test_reentrant_for_owner(self):
        locks = LogicalLockManager()
        assert locks.acquire("order/o1", "alice")
        assert locks.acquire("order/o1", "alice")

    def test_shared_locks_coexist(self):
        locks = LogicalLockManager()
        assert locks.acquire("ref", "a", LockMode.SHARED)
        assert locks.acquire("ref", "b", LockMode.SHARED)
        assert not locks.acquire("ref", "c", LockMode.EXCLUSIVE)

    def test_shared_to_exclusive_upgrade_when_sole_holder(self):
        locks = LogicalLockManager()
        locks.acquire("ref", "a", LockMode.SHARED)
        assert locks.acquire("ref", "a", LockMode.EXCLUSIVE)
        assert not locks.acquire("ref", "b", LockMode.SHARED)

    def test_upgrade_denied_with_other_sharers(self):
        locks = LogicalLockManager()
        locks.acquire("ref", "a", LockMode.SHARED)
        locks.acquire("ref", "b", LockMode.SHARED)
        assert not locks.acquire("ref", "a", LockMode.EXCLUSIVE)

    def test_release_all_touches_only_the_owners_locks(self, monkeypatch):
        """A commit releases its own locks; with 10,000 foreign locks
        held (deferred actions of other transactions still running) it
        must not visit one of them — counted, not timed."""
        locks = LogicalLockManager()
        for index in range(10_000):
            assert locks.acquire(f"order/o{index}", f"tx-{index}")
        locks.acquire("order/mine-1", "me")
        locks.acquire("shared/ref", "me", LockMode.SHARED)
        locks.acquire("shared/ref", "tx-0", LockMode.SHARED)

        released: list[tuple[str, str]] = []
        release = locks.release

        def counting(resource, owner):
            released.append((resource, owner))
            return release(resource, owner)

        monkeypatch.setattr(locks, "release", counting)
        assert locks.release_all("nobody") == 0  # took no lock: one lookup
        assert released == []
        assert locks.release_all("me") == 2
        assert sorted(released) == [("order/mine-1", "me"), ("shared/ref", "me")]
        assert locks.holder_of("shared/ref") == {"tx-0"}
        assert locks.held_count == 10_001
        assert locks.release_all("me") == 0

    def test_release_all_frees_everything(self):
        locks = LogicalLockManager()
        locks.acquire("x", "alice")
        locks.acquire("y", "alice")
        assert locks.release_all("alice") == 2
        assert locks.acquire("x", "bob")
        assert locks.held_count == 1

    def test_release_unheld_is_false(self):
        locks = LogicalLockManager()
        assert not locks.release("x", "nobody")

    def test_holder_inspection(self):
        locks = LogicalLockManager()
        locks.acquire("x", "alice")
        assert locks.holder_of("x") == {"alice"}
        assert locks.holder_of("unlocked") is None
        assert locks.is_locked("x")


class TestTwoPhaseLocking:
    def test_immediate_grant_when_free(self):
        manager = LockManager2PL()
        assert manager.acquire("t1", "x")
        assert manager.locks_held("t1") == {"x"}

    def test_conflicting_request_queues_and_fires_on_release(self):
        manager = LockManager2PL()
        manager.acquire("t1", "x")
        granted = []
        assert not manager.acquire("t2", "x", on_grant=lambda: granted.append("t2"))
        assert manager.waiting_count("x") == 1
        manager.release_all("t1")
        assert granted == ["t2"]
        assert manager.holders("x") == {"t2"}

    def test_fifo_grant_order(self):
        manager = LockManager2PL()
        manager.acquire("t1", "x")
        order = []
        manager.acquire("t2", "x", on_grant=lambda: order.append("t2"))
        manager.acquire("t3", "x", on_grant=lambda: order.append("t3"))
        manager.release_all("t1")
        assert order == ["t2"]  # exclusive: only head granted
        manager.release_all("t2")
        assert order == ["t2", "t3"]

    def test_shared_lock_coexistence(self):
        manager = LockManager2PL()
        assert manager.acquire("t1", "x", LockMode.SHARED)
        assert manager.acquire("t2", "x", LockMode.SHARED)
        assert manager.holders("x") == {"t1", "t2"}

    def test_shared_waiters_granted_together(self):
        manager = LockManager2PL()
        manager.acquire("t1", "x", LockMode.EXCLUSIVE)
        granted = []
        manager.acquire("t2", "x", LockMode.SHARED, on_grant=lambda: granted.append("t2"))
        manager.acquire("t3", "x", LockMode.SHARED, on_grant=lambda: granted.append("t3"))
        manager.release_all("t1")
        assert granted == ["t2", "t3"]

    def test_deadlock_detected_on_cycle(self):
        manager = LockManager2PL()
        manager.acquire("t1", "x")
        manager.acquire("t2", "y")
        manager.acquire("t1", "y", on_grant=lambda: None)
        with pytest.raises(DeadlockDetected):
            manager.acquire("t2", "x", on_grant=lambda: None)
        assert manager.deadlocks == 1

    def test_three_way_deadlock_detected(self):
        manager = LockManager2PL()
        for tx, resource in (("t1", "a"), ("t2", "b"), ("t3", "c")):
            manager.acquire(tx, resource)
        manager.acquire("t1", "b", on_grant=lambda: None)
        manager.acquire("t2", "c", on_grant=lambda: None)
        with pytest.raises(DeadlockDetected):
            manager.acquire("t3", "a", on_grant=lambda: None)

    def test_victim_release_unblocks_others(self):
        manager = LockManager2PL()
        manager.acquire("t1", "x")
        manager.acquire("t2", "y")
        granted = []
        manager.acquire("t1", "y", on_grant=lambda: granted.append("t1:y"))
        with pytest.raises(DeadlockDetected):
            manager.acquire("t2", "x", on_grant=lambda: None)
        manager.release_all("t2")  # victim rolls back
        assert granted == ["t1:y"]

    def test_queued_acquire_requires_callback(self):
        manager = LockManager2PL()
        manager.acquire("t1", "x")
        with pytest.raises(ValueError):
            manager.acquire("t2", "x")

    def test_reentrant_acquire(self):
        manager = LockManager2PL()
        assert manager.acquire("t1", "x")
        assert manager.acquire("t1", "x")

    def test_no_queue_jumping_on_free_lock(self):
        manager = LockManager2PL()
        manager.acquire("t1", "x")
        manager.acquire("t2", "x", on_grant=lambda: None)
        manager.release_all("t1")
        # t2 now holds; a newcomer must queue even though it sees waiters
        assert manager.holders("x") == {"t2"}


class TestOCC:
    def test_non_conflicting_commits_succeed(self):
        occ = OCCValidator()
        occ.begin("t1")
        occ.begin("t2")
        occ.commit("t1", read_set=["x"], write_set=["x"])
        occ.commit("t2", read_set=["y"], write_set=["y"])
        assert occ.commits == 2 and occ.aborts == 0

    def test_read_write_conflict_aborts(self):
        occ = OCCValidator()
        occ.begin("t1")
        occ.begin("t2")
        occ.commit("t1", read_set=[], write_set=["x"])
        with pytest.raises(ValidationFailed):
            occ.commit("t2", read_set=["x"], write_set=[])
        assert occ.abort_rate == 0.5

    def test_write_write_without_read_passes(self):
        """Backward validation checks read sets only (blind writes ok)."""
        occ = OCCValidator()
        occ.begin("t1")
        occ.begin("t2")
        occ.commit("t1", read_set=[], write_set=["x"])
        occ.commit("t2", read_set=[], write_set=["x"])
        assert occ.commits == 2

    def test_serial_transactions_never_conflict(self):
        occ = OCCValidator()
        occ.begin("t1")
        occ.commit("t1", read_set=["x"], write_set=["x"])
        occ.begin("t2")  # begins after t1 committed
        occ.commit("t2", read_set=["x"], write_set=["x"])
        assert occ.aborts == 0

    def test_explicit_abort(self):
        occ = OCCValidator()
        occ.begin("t1")
        occ.abort("t1")
        assert occ.aborts == 1 and occ.active_count == 0

    def test_double_begin_rejected(self):
        occ = OCCValidator()
        occ.begin("t1")
        with pytest.raises(ValueError):
            occ.begin("t1")

    def test_commit_unknown_tx_rejected(self):
        occ = OCCValidator()
        with pytest.raises(ValueError):
            occ.commit("ghost", [], [])

    def test_retry_after_abort_can_succeed(self):
        occ = OCCValidator()
        occ.begin("t1")
        occ.begin("t2")
        occ.commit("t1", read_set=[], write_set=["x"])
        with pytest.raises(ValidationFailed):
            occ.commit("t2", read_set=["x"], write_set=["x"])
        occ.begin("t2-retry")
        occ.commit("t2-retry", read_set=["x"], write_set=["x"])
        assert occ.commits == 2
