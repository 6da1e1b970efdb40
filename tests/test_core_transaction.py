"""Tests for the transaction layer: solipsism, CC baselines, deferral."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import (
    ConstraintManager,
    ConstraintMode,
    NonNegativeConstraint,
)
from repro.core.ops import PendingOp
from repro.core.transaction import (
    DESCRIPTOR_TYPE,
    CCMode,
    CommitReceipt,
    IsolationLevel,
    TransactionManager,
    UpdateMode,
)
from repro.errors import TransactionAborted
from repro.lsdb.events import EventKind
from repro.lsdb.store import LSDBStore
from repro.merge.clock import VectorClock
from repro.merge.deltas import Delta
from repro.obs.metrics import MetricsRegistry
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


class TestOptimisticConstraintAbort:
    """A commit blocked by a PREVENT constraint after passing optimistic
    validation leaves no write behind in the validator."""

    @pytest.mark.parametrize(
        "begin_kwargs",
        [{"mode": CCMode.OPTIMISTIC}, {"isolation": IsolationLevel.SERIALIZABLE}],
        ids=["optimistic", "serializable"],
    )
    def test_blocked_commit_leaves_no_phantom_write(
        self, constrained_tx_manager, begin_kwargs
    ):
        manager = constrained_tx_manager
        manager.constraints.add(
            NonNegativeConstraint("floor", "stock", "qty"),
            mode=ConstraintMode.PREVENT,
        )
        manager.store.insert("stock", "s", {"qty": 1})
        reader = manager.begin(**begin_kwargs)
        assert reader.read("stock", "s").fields["qty"] == 1
        blocked = manager.begin(**begin_kwargs)
        blocked.apply_delta("stock", "s", Delta.add("qty", -5))

        receipt = blocked.commit()
        assert not receipt.committed
        assert receipt.reason == "blocking constraint violation"
        assert manager.occ.commits == 0
        assert manager.occ.aborts == 1
        assert manager.occ.active_count == 1  # only the reader is left

        # The blocked write never happened, so the reader of that key
        # validates cleanly.
        reader.set_fields("audit", "s", {"seen": 1})
        assert reader.commit().committed
        assert manager.occ.commits == 1
        assert manager.store.get("stock", "s").fields["qty"] == 1

    def test_validation_failure_records_no_managed_violation(
        self, constrained_tx_manager
    ):
        manager = constrained_tx_manager
        manager.constraints.add(NonNegativeConstraint("floor", "stock", "qty"))
        manager.store.insert("stock", "s", {"qty": 1})
        first = manager.begin(mode=CCMode.OPTIMISTIC)
        second = manager.begin(mode=CCMode.OPTIMISTIC)
        first.read("stock", "s")
        second.read("stock", "s")
        first.set_fields("stock", "s", {"qty": 0})
        second.set_fields("stock", "s", {"qty": -1})
        assert first.commit().committed
        receipt = second.commit()
        assert not receipt.committed and "concurrent" in receipt.reason
        assert manager.constraints.ledger == []
        assert (manager.occ.commits, manager.occ.aborts) == (1, 1)
        # A managed violation is recorded once its transaction commits.
        third = manager.begin(mode=CCMode.OPTIMISTIC)
        third.set_fields("stock", "s", {"qty": -2})
        committed = third.commit()
        assert committed.committed and len(committed.violations) == 1
        assert manager.constraints.ledger == committed.violations


def _old_to_payload(delta: Delta) -> dict:
    """The payload shape every ``DELTA`` event has always carried."""
    return {
        "numeric": dict(delta.numeric),
        "set_adds": {name: sorted(vals) for name, vals in delta.set_adds.items()},
        "set_removes": {
            name: sorted(vals) for name, vals in delta.set_removes.items()
        },
    }


_field_names = st.sampled_from(["a", "b", "c"])
_set_maps = st.dictionaries(
    _field_names, st.frozensets(st.integers(0, 5), min_size=1), max_size=2
)
_deltas = st.builds(
    Delta,
    numeric=st.dictionaries(_field_names, st.integers(-5, 5), max_size=3),
    set_adds=_set_maps,
    set_removes=_set_maps,
)


class TestPlainCommitEquivalence:
    """The commit path's shortcuts for a plain commit change no
    observable result: every receipt field follows the same rules across
    modes, levels, deferred actions, metrics, outboxes and tags."""

    @settings(max_examples=120, deadline=None)
    @given(
        mode=st.sampled_from([None, *CCMode]),
        isolation=st.sampled_from([None, *IsolationLevel]),
        update_mode=st.sampled_from(list(UpdateMode)),
        action_costs=st.lists(st.sampled_from([1.0, 2.5]), max_size=2),
        with_metrics=st.booleans(),
        with_queue=st.booleans(),
        tags=st.sampled_from([(), ("audit",), ("audit", "hot")]),
        prior_tracked=st.booleans(),
        begin_at=st.sampled_from([0.0, 4.0]),
    )
    def test_receipt_follows_the_commit_rules(
        self,
        mode,
        isolation,
        update_mode,
        action_costs,
        with_metrics,
        with_queue,
        tags,
        prior_tracked,
        begin_at,
    ):
        sim = Simulator(seed=1)
        store = LSDBStore(clock=lambda: sim.now)
        queue = ReliableQueue(sim) if with_queue else None
        metrics = MetricsRegistry() if with_metrics else None
        manager = TransactionManager(
            store,
            sim=sim,
            queue=queue,
            update_mode=update_mode,
            commit_cost=1.5,
            defer_lag=2.0,
            metrics=metrics,
        )
        if prior_tracked:
            earlier = manager.begin(isolation=IsolationLevel.SNAPSHOT)
            earlier.insert("other", "o", {"n": 0})
            assert earlier.commit().committed
        tracked = tuple(sorted(manager._committed))
        if begin_at:
            sim.schedule_at(begin_at, lambda: None)
            sim.run()
        head_at_begin = store.log.head_lsn
        before = store.log.head_lsn

        tx = manager.begin(mode=mode, isolation=isolation)
        level = isolation if mode is None else None
        tx.insert("order", "o1", {"total": 5}, tags=tags)
        tx.apply_delta("order", "o1", Delta.add("total", 2), tags=tags)
        tx.set_fields("order", "o2", {"status": "new"})
        for index, cost in enumerate(action_costs):
            tx.defer(f"act{index}", lambda s: None, cost=cost)
        if with_queue:
            tx.enqueue("order.created", {"key": "o1"})
        submitted_at = sim.now
        receipt = tx.commit()

        commit_done = submitted_at + 1.5
        total = sum(action_costs)
        if not action_costs:
            acked_at = done_at = commit_done
        elif update_mode is UpdateMode.SYNCHRONOUS:
            acked_at = done_at = commit_done + total
        else:
            acked_at, done_at = commit_done, commit_done + 2.0 + total
        appended = list(store.log.since(before))[:3]
        if level is None:
            tracking = {"began_at": begin_at}
        else:
            tracking = {
                "isolation": level.value,
                "site": manager.default_site,
                "began_at": begin_at,
                "snapshot_lsn": head_at_begin,
                "snapshot_txids": tracked,
                "snapshot_vector": VectorClock(
                    {manager.default_site: len(tracked)} if tracked else {}
                ),
            }
        expected = CommitReceipt(
            tx_id=tx.tx_id,
            committed=True,
            submitted_at=submitted_at,
            acked_at=acked_at,
            actions_done_at=done_at,
            events=appended,
            violations=[],
            **tracking,
        )
        for spec in dataclasses.fields(CommitReceipt):
            assert getattr(receipt, spec.name) == getattr(expected, spec.name), spec.name
        assert [event.tx_id for event in receipt.events] == [tx.tx_id] * 3
        assert [event.tags for event in receipt.events] == [
            frozenset(tags),
            frozenset(tags),
            frozenset(),
        ]
        assert manager.commits == 1 + prior_tracked
        if not action_costs:
            assert manager.locks.held_count == 0
        sim.run()
        assert manager.locks.held_count == 0
        if with_queue:
            assert queue.stats.enqueued == 1
        if with_metrics:
            label = level.value if level is not None else tx.mode.value
            if prior_tracked and label == "snapshot":
                assert metrics.value("tx.commits", mode=label) == 2
            else:
                assert metrics.value("tx.commits", mode=label) == 1
            ages = metrics.histogram("tx.snapshot_age", mode=label)
            assert ages.count == (level is not None) + (
                prior_tracked and label == "snapshot"
            )

    def test_pending_op_is_immutable(self):
        op = PendingOp(EventKind.TOMBSTONE, "t", "k")
        with pytest.raises(AttributeError):
            op.kind = EventKind.INSERT
        with pytest.raises(AttributeError):
            op.extra = 1
        # The default payload is empty and read-only, never a shared dict.
        assert op.payload == {} and not isinstance(op.payload, dict)
        with pytest.raises(TypeError):
            op.payload["x"] = 1
        assert op.tags == frozenset()
        assert op.entity_ref == ("t", "k")

    def test_transaction_has_no_instance_dict(self, tx_manager):
        tx = tx_manager.begin()
        with pytest.raises(AttributeError):
            tx.unexpected = True

    @settings(max_examples=150)
    @given(delta=_deltas)
    def test_to_payload_keeps_its_shape_and_returns_fresh_dicts(self, delta):
        first, second = delta.to_payload(), delta.to_payload()
        assert first == second == _old_to_payload(delta)
        assert first is not second
        for part in ("numeric", "set_adds", "set_removes"):
            assert type(first[part]) is dict
            assert first[part] is not second[part]
        assert Delta.from_payload(first) == delta
