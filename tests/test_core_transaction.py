"""Tests for the transaction layer: solipsism, CC baselines, deferral."""

from __future__ import annotations

import pytest

from repro.core.constraints import (
    ConstraintManager,
    ConstraintMode,
    NonNegativeConstraint,
)
from repro.core.transaction import (
    DESCRIPTOR_TYPE,
    CCMode,
    IsolationLevel,
    TransactionManager,
    UpdateMode,
)
from repro.errors import TransactionAborted
from repro.lsdb.events import EventKind
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.queues.reliable import ReliableQueue
from repro.sim.scheduler import Simulator


class TestSolipsisticCommit:
    def test_commit_applies_buffered_ops(self, tx_manager):
        tx = tx_manager.begin()
        tx.insert("order", "o1", {"total": 5})
        tx.apply_delta("order", "o1", Delta.add("total", 2))
        receipt = tx.commit()
        assert receipt.committed
        assert tx_manager.store.get("order", "o1").fields["total"] == 7

    def test_nothing_visible_before_commit(self, tx_manager):
        tx = tx_manager.begin()
        tx.insert("order", "o1", {"total": 5})
        assert tx_manager.store.get("order", "o1") is None

    def test_solipsistic_conflicting_commits_both_succeed(self, tx_manager):
        """Principle 2.10: no waits, no validation aborts — deltas compose."""
        tx_manager.store.insert("stock", "s", {"qty": 10})
        tx_a = tx_manager.begin()
        tx_b = tx_manager.begin()
        tx_a.read("stock", "s")
        tx_b.read("stock", "s")
        tx_a.apply_delta("stock", "s", Delta.add("qty", -3))
        tx_b.apply_delta("stock", "s", Delta.add("qty", -4))
        assert tx_a.commit().committed
        assert tx_b.commit().committed
        assert tx_manager.store.get("stock", "s").fields["qty"] == 3
        assert tx_manager.abort_rate == 0.0

    def test_read_your_writes_within_transaction(self, tx_manager):
        tx_manager.store.insert("acct", "a", {"bal": 10})
        tx = tx_manager.begin()
        tx.apply_delta("acct", "a", Delta.add("bal", 5))
        assert tx.read("acct", "a").fields["bal"] == 15
        # other transactions see nothing yet
        assert tx_manager.store.get("acct", "a").fields["bal"] == 10

    def test_finished_transaction_rejects_further_use(self, tx_manager):
        tx = tx_manager.begin()
        tx.commit()
        with pytest.raises(TransactionAborted):
            tx.insert("t", "k", {})

    def test_abort_discards_everything(self, tx_manager):
        tx = tx_manager.begin()
        tx.insert("order", "o1", {})
        receipt = tx.abort("changed my mind")
        assert not receipt.committed
        assert tx_manager.store.get("order", "o1") is None
        assert tx_manager.abort_reasons == {"changed my mind": 1}

    def test_events_carry_tx_id(self, tx_manager):
        tx = tx_manager.begin(tx_id="custom-tx")
        tx.insert("order", "o1", {})
        receipt = tx.commit()
        assert receipt.events[0].tx_id == "custom-tx"

    def test_receipt_events_read_like_the_list_of_appended_events(self, tx_manager):
        """``CommitReceipt.events`` is a lazy view of the appended rows;
        for every op kind it equals the ``LogEvent`` list a commit that
        materialized each event on append would have returned."""
        store = tx_manager.store
        store.insert("order", "old", {"total": 1})
        before = store.log.head_lsn
        tx = tx_manager.begin(tx_id="five-kinds")
        tx.insert("order", "o1", {"total": 9}, tags=["audit"])
        delta = Delta(numeric={"total": 3}, set_adds={"labels": frozenset({"y", "x"})})
        tx.apply_delta("order", "o1", delta)
        tx.set_fields("order", "o1", {"status": "paid"})
        tx.tombstone("order", "old")
        tx.mark_obsolete("order", "o1")
        receipt = tx.commit()

        appended = list(store.log.since(before))  # materialized LogEvents
        assert [event.kind for event in appended] == [
            EventKind.INSERT,
            EventKind.DELTA,
            EventKind.SET_FIELDS,
            EventKind.TOMBSTONE,
            EventKind.OBSOLETE,
        ]
        assert receipt.events == appended
        assert appended == receipt.events
        assert len(receipt.events) == 5
        assert list(receipt.events) == appended
        assert [receipt.events[i] for i in range(5)] == appended
        assert receipt.events[-1] == appended[-1]
        assert receipt.events[1:3] == appended[1:3]
        assert all(event.tx_id == "five-kinds" for event in receipt.events)
        assert receipt.events[0].tags == frozenset({"audit"})
        assert receipt.events[1].payload == delta.to_payload()
        # An aborted transaction appended nothing.
        aborted = tx_manager.begin().abort()
        assert len(aborted.events) == 0 and list(aborted.events) == []


class TestOptimisticMode:
    def test_conflicting_read_aborts_second_committer(self, tx_manager):
        tx_manager.store.insert("stock", "s", {"qty": 10})
        tx_a = tx_manager.begin(mode=CCMode.OPTIMISTIC)
        tx_b = tx_manager.begin(mode=CCMode.OPTIMISTIC)
        tx_a.read("stock", "s")
        tx_b.read("stock", "s")
        tx_a.set_fields("stock", "s", {"qty": 7})
        tx_b.set_fields("stock", "s", {"qty": 6})
        assert tx_a.commit().committed
        receipt_b = tx_b.commit()
        assert not receipt_b.committed
        assert "concurrent" in receipt_b.reason
        # the failed write left nothing behind
        assert tx_manager.store.get("stock", "s").fields["qty"] == 7

    def test_disjoint_optimistic_transactions_commit(self, tx_manager):
        tx_a = tx_manager.begin(mode=CCMode.OPTIMISTIC)
        tx_b = tx_manager.begin(mode=CCMode.OPTIMISTIC)
        tx_a.insert("a", "1", {})
        tx_b.insert("b", "1", {})
        assert tx_a.commit().committed
        assert tx_b.commit().committed

    def test_explicit_abort_in_optimistic_mode(self, tx_manager):
        tx = tx_manager.begin(mode=CCMode.OPTIMISTIC)
        tx.read("stock", "s")
        receipt = tx.abort()
        assert not receipt.committed
        assert tx_manager.occ.active_count == 0


class TestTryLockMode:
    def test_lock_conflict_aborts(self, tx_manager):
        tx_manager.locks.acquire("order/o1", "someone-else")
        tx = tx_manager.begin(mode=CCMode.TRY_LOCK)
        tx.set_fields("order", "o1", {"v": 1})
        receipt = tx.commit()
        assert not receipt.committed
        assert "lock unavailable" in receipt.reason

    def test_partial_acquisition_released_on_abort(self, tx_manager):
        tx_manager.locks.acquire("b/1", "someone-else")
        tx = tx_manager.begin(mode=CCMode.TRY_LOCK)
        tx.insert("a", "1", {})
        tx.insert("b", "1", {})
        assert not tx.commit().committed
        assert not tx_manager.locks.is_locked("a/1")

    def test_locks_released_after_commit_without_actions(self, tx_manager):
        tx = tx_manager.begin(mode=CCMode.TRY_LOCK)
        tx.insert("order", "o1", {})
        assert tx.commit().committed
        assert not tx_manager.locks.is_locked("order/o1")


class TestDeferredUpdates:
    def _manager(self, sim, update_mode):
        store = LSDBStore(clock=lambda: sim.now)
        return TransactionManager(
            store,
            sim=sim,
            update_mode=update_mode,
            commit_cost=1.0,
            defer_lag=2.0,
        )

    def test_deferred_ack_precedes_actions(self):
        sim = Simulator()
        manager = self._manager(sim, UpdateMode.DEFERRED)
        tx = manager.begin()
        tx.insert("order", "o1", {"total": 10})
        tx.defer(
            "agg", lambda s: s.apply_delta("agg", "day", Delta.add("rev", 10)), cost=5.0
        )
        receipt = tx.commit()
        assert receipt.response_time == 1.0  # just the descriptor commit
        assert receipt.staleness_window == 7.0  # lag 2 + cost 5
        # At ack time the aggregate is still stale:
        sim.run(until=receipt.acked_at)
        assert manager.store.get("agg", "day") is None
        # After the window it is consistent:
        sim.run(until=receipt.actions_done_at)
        assert manager.store.get("agg", "day").fields["rev"] == 10

    def test_synchronous_ack_includes_action_cost(self):
        sim = Simulator()
        manager = self._manager(sim, UpdateMode.SYNCHRONOUS)
        tx = manager.begin()
        tx.insert("order", "o1", {"total": 10})
        tx.defer(
            "agg", lambda s: s.apply_delta("agg", "day", Delta.add("rev", 10)), cost=5.0
        )
        receipt = tx.commit()
        assert receipt.response_time == 6.0  # commit 1 + action 5
        assert receipt.staleness_window == 0.0
        sim.run(until=receipt.acked_at)
        assert manager.store.get("agg", "day").fields["rev"] == 10

    def test_descriptor_committed_then_marked_done(self):
        sim = Simulator()
        manager = self._manager(sim, UpdateMode.DEFERRED)
        tx = manager.begin()
        tx.insert("order", "o1", {})
        tx.defer("noop", lambda s: None, cost=1.0)
        receipt = tx.commit()
        descriptor = manager.store.get(DESCRIPTOR_TYPE, receipt.tx_id)
        assert descriptor.fields["status"] == "pending"
        assert descriptor.fields["actions"] == ["noop"]
        sim.run()
        descriptor = manager.store.get(DESCRIPTOR_TYPE, receipt.tx_id)
        assert descriptor.fields["status"] == "done"

    def test_logical_locks_held_until_actions_done(self):
        sim = Simulator()
        manager = self._manager(sim, UpdateMode.DEFERRED)
        tx = manager.begin()
        tx.insert("order", "o1", {})
        tx.defer("slow", lambda s: None, cost=10.0)
        receipt = tx.commit()
        sim.run(until=receipt.acked_at)
        # Another lock-respecting user is excluded while actions pend:
        assert not manager.locks.acquire("order/o1", "other-user")
        sim.run()
        assert manager.locks.acquire("order/o1", "other-user")

    def test_owner_not_blocked_by_own_pending_actions(self):
        sim = Simulator()
        manager = self._manager(sim, UpdateMode.DEFERRED)
        tx = manager.begin()
        tx.insert("order", "o1", {})
        tx.defer("slow", lambda s: None, cost=10.0)
        receipt = tx.commit()
        # The same owner can re-acquire (SAP: locks block other users,
        # not the transaction's own user).
        assert manager.locks.acquire("order/o1", receipt.tx_id)

    def test_multiple_actions_run_in_order(self):
        sim = Simulator()
        manager = self._manager(sim, UpdateMode.DEFERRED)
        ran = []
        tx = manager.begin()
        tx.insert("order", "o1", {})
        tx.defer("first", lambda s: ran.append(("first", sim.now)), cost=2.0)
        tx.defer("second", lambda s: ran.append(("second", sim.now)), cost=3.0)
        receipt = tx.commit()
        sim.run()
        assert ran == [("first", 5.0), ("second", 8.0)]
        assert receipt.actions_done_at == 8.0

    def test_no_sim_runs_actions_inline(self):
        store = LSDBStore()
        manager = TransactionManager(store)
        tx = manager.begin()
        tx.insert("order", "o1", {})
        tx.defer("agg", lambda s: s.insert("agg", "day", {"n": 1}))
        tx.commit()
        assert store.get("agg", "day").fields["n"] == 1


class TestReceiptTiming:
    """CommitReceipt timing semantics across update modes and outcomes."""

    def _manager(self, sim, update_mode=UpdateMode.DEFERRED, **kwargs):
        store = LSDBStore(clock=lambda: sim.now)
        return TransactionManager(
            store,
            sim=sim,
            update_mode=update_mode,
            commit_cost=1.0,
            defer_lag=2.0,
            **kwargs,
        )

    def test_commit_without_actions_collapses_timeline(self):
        sim = Simulator()
        manager = self._manager(sim)
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        tx = manager.begin()
        tx.insert("order", "o1", {})
        receipt = tx.commit()
        assert receipt.submitted_at == 5.0
        assert receipt.acked_at == 6.0  # commit_cost only
        assert receipt.actions_done_at == receipt.acked_at
        assert receipt.response_time == 1.0
        assert receipt.staleness_window == 0.0

    def test_deferred_vs_synchronous_same_work(self):
        def run(update_mode):
            sim = Simulator()
            manager = self._manager(sim, update_mode=update_mode)
            tx = manager.begin()
            tx.insert("order", "o1", {})
            tx.defer("agg", lambda s: None, cost=4.0)
            return tx.commit()

        deferred = run(UpdateMode.DEFERRED)
        synchronous = run(UpdateMode.SYNCHRONOUS)
        # Deferral buys exactly the action cost off the response time
        # and pays it back as a staleness window (plus the defer lag).
        assert deferred.response_time == 1.0
        assert synchronous.response_time == 5.0
        assert deferred.staleness_window == 6.0  # lag 2 + cost 4
        assert synchronous.staleness_window == 0.0
        assert (
            deferred.acked_at + deferred.staleness_window
            == deferred.actions_done_at
        )

    def test_abort_receipt_times_collapse_to_now(self):
        sim = Simulator()
        manager = self._manager(sim)
        tx = manager.begin()
        tx.insert("order", "o1", {})
        tx.defer("never", lambda s: None, cost=9.0)
        sim.schedule_at(3.0, lambda: None)
        sim.run()
        receipt = tx.abort("operator said no")
        assert receipt.submitted_at == 3.0
        assert receipt.acked_at == 3.0
        assert receipt.actions_done_at == 3.0
        assert receipt.response_time == 0.0
        assert receipt.staleness_window == 0.0
        assert receipt.began_at == 0.0
        # No descriptor was ever committed for the aborted work.
        assert manager.store.get(DESCRIPTOR_TYPE, receipt.tx_id) is None

    def test_began_at_feeds_snapshot_age(self):
        sim = Simulator()
        manager = self._manager(sim, isolation=IsolationLevel.SNAPSHOT)
        tx = manager.begin()
        sim.schedule_at(7.0, lambda: None)
        sim.run()
        receipt = tx.commit()
        assert receipt.began_at == 0.0
        assert receipt.snapshot_age == 7.0
        assert receipt.snapshot_age == receipt.submitted_at - receipt.began_at

    def test_deferred_action_that_itself_aborts(self):
        # A deferred action runs its own transaction which aborts: the
        # outer receipt's timeline is unaffected, the outer descriptor
        # still completes, and the inner abort is accounted.
        sim = Simulator()
        manager = self._manager(sim)

        def flaky_action(store):
            inner = manager.begin()
            inner.insert("agg", "day", {"n": 1})
            inner.abort("downstream rejected")

        tx = manager.begin()
        tx.insert("order", "o1", {})
        tx.defer("flaky", flaky_action, cost=2.0)
        receipt = tx.commit()
        sim.run()
        assert receipt.committed
        assert receipt.staleness_window == 4.0  # lag 2 + cost 2
        assert manager.store.get("agg", "day") is None
        assert manager.store.get(DESCRIPTOR_TYPE, receipt.tx_id).fields[
            "status"
        ] == "done"
        assert manager.aborts == 1
        assert manager.abort_reasons == {"downstream rejected": 1}
        assert not manager.locks.is_locked("order/o1")

    def test_deferred_action_abort_under_isolation_conflict(self):
        # The inner transaction aborts for a *real* reason: its write
        # races a concurrent snapshot-level commit on the same ref.
        sim = Simulator()
        manager = self._manager(sim, isolation=IsolationLevel.SNAPSHOT)
        outcomes = []

        def racing_action(store):
            inner = manager.begin()
            inner.set_fields("agg", "day", {"n": 1})
            rival = manager.begin()
            rival.set_fields("agg", "day", {"n": 2})
            assert rival.commit().committed
            outcomes.append(inner.commit())

        tx = manager.begin()
        tx.insert("order", "o1", {})
        tx.defer("racing", racing_action, cost=2.0)
        receipt = tx.commit()
        sim.run()
        assert receipt.committed
        inner_receipt = outcomes[0]
        assert not inner_receipt.committed
        assert "write-write conflict" in inner_receipt.reason
        assert inner_receipt.isolation == "snapshot"
        assert manager.store.get("agg", "day").fields["n"] == 2


class TestOutboxIntegration:
    def test_commit_publishes_enqueued_events(self, sim, tx_manager, queue):
        seen = []
        queue.subscribe("order.created", lambda m: seen.append(m.causation_id) or True)
        tx = tx_manager.begin()
        tx.insert("order", "o1", {})
        tx.enqueue("order.created", {"key": "o1"})
        receipt = tx.commit()
        sim.run()
        assert seen == [receipt.tx_id]

    def test_abort_publishes_only_compensations(self, sim, tx_manager, queue):
        seen = []
        queue.subscribe("order.created", lambda m: seen.append("created") or True)
        queue.subscribe("cleanup", lambda m: seen.append("cleanup") or True)
        tx = tx_manager.begin()
        tx.enqueue("order.created", {})
        tx.enqueue_on_abort("cleanup", {})
        tx.abort()
        sim.run()
        assert seen == ["cleanup"]


class TestConstraintIntegration:
    def test_managed_violation_commits_with_record(self, constrained_tx_manager):
        manager = constrained_tx_manager
        manager.constraints.add(NonNegativeConstraint("floor", "stock", "qty"))
        tx = manager.begin()
        tx.insert("stock", "s", {"qty": -1})
        receipt = tx.commit()
        assert receipt.committed
        assert len(receipt.violations) == 1

    def test_prevent_violation_aborts(self, constrained_tx_manager):
        manager = constrained_tx_manager
        manager.constraints.add(
            NonNegativeConstraint("floor", "stock", "qty"),
            mode=ConstraintMode.PREVENT,
        )
        tx = manager.begin()
        tx.insert("stock", "s", {"qty": -1})
        receipt = tx.commit()
        assert not receipt.committed
        assert manager.store.get("stock", "s") is None
