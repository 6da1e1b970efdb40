"""Tests for the LSDB store facade."""

from __future__ import annotations

import pytest

from repro.errors import EntityNotFound
from repro.lsdb.checkpoint import CheckpointPolicy
from repro.lsdb.events import EventKind, LogEvent
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta


def remote_delta(origin, seq, amount, key="k"):
    return LogEvent(
        lsn=0, timestamp=0.0, entity_type="t", entity_key=key,
        kind=EventKind.DELTA, payload=Delta.add("v", amount).to_payload(),
        origin=origin, origin_seq=seq,
    )


class TestLocalWrites:
    def test_insert_then_get(self):
        store = LSDBStore()
        store.insert("order", "o1", {"total": 5})
        assert store.get("order", "o1").fields["total"] == 5

    def test_delta_accumulates(self):
        store = LSDBStore()
        store.insert("acct", "a", {"bal": 0})
        store.apply_delta("acct", "a", Delta.add("bal", 10))
        store.apply_delta("acct", "a", Delta.add("bal", -3))
        assert store.get("acct", "a").fields["bal"] == 7

    def test_set_fields_overwrites(self):
        store = LSDBStore()
        store.insert("order", "o1", {"status": "open"})
        store.set_fields("order", "o1", {"status": "closed"})
        assert store.get("order", "o1").fields["status"] == "closed"

    def test_tombstone_marks_not_erases(self):
        store = LSDBStore()
        store.insert("order", "o1", {"total": 5})
        store.tombstone("order", "o1")
        state = store.get("order", "o1")
        assert state.deleted and state.fields["total"] == 5

    def test_require_raises_for_missing_and_deleted(self):
        store = LSDBStore()
        with pytest.raises(EntityNotFound):
            store.require("order", "nope")
        store.insert("order", "o1", {})
        store.tombstone("order", "o1")
        with pytest.raises(EntityNotFound):
            store.require("order", "o1")

    def test_mark_obsolete(self):
        store = LSDBStore()
        store.insert("offer", "f1", {"qty": 5})
        store.mark_obsolete("offer", "f1")
        state = store.get("offer", "f1")
        assert state.obsolete and not state.live

    def test_origin_sequence_stamps_local_events(self):
        store = LSDBStore(origin="r1")
        first = store.insert("t", "a", {})
        second = store.insert("t", "b", {})
        assert first.identity == ("r1", 1)
        assert second.identity == ("r1", 2)
        assert store.version_vector.get("r1") == 2

    def test_clock_stamps_timestamps(self):
        times = iter([1.5, 2.5])
        store = LSDBStore(clock=lambda: next(times))
        event = store.insert("t", "a", {})
        assert event.timestamp == 1.5


class TestRemoteApply:
    def test_in_order_apply(self):
        store = LSDBStore(origin="r2")
        assert store.apply_remote(remote_delta("r1", 1, 5))
        assert store.apply_remote(remote_delta("r1", 2, 3))
        assert store.get("t", "k").fields["v"] == 8
        assert store.version_vector.get("r1") == 2

    def test_duplicates_rejected(self):
        store = LSDBStore(origin="r2")
        event = remote_delta("r1", 1, 5)
        assert store.apply_remote(event)
        assert not store.apply_remote(event)
        assert store.get("t", "k").fields["v"] == 5
        assert store.duplicates_rejected == 1

    def test_out_of_order_buffered_then_drained(self):
        store = LSDBStore(origin="r2")
        assert not store.apply_remote(remote_delta("r1", 3, 1))
        assert not store.apply_remote(remote_delta("r1", 2, 1))
        assert store.get("t", "k") is None  # nothing applied yet
        assert store.apply_remote(remote_delta("r1", 1, 1))
        assert store.get("t", "k").fields["v"] == 3
        assert store.version_vector.get("r1") == 3

    def test_interleaved_origins_are_independent(self):
        store = LSDBStore(origin="r3")
        store.apply_remote(remote_delta("r1", 1, 1))
        store.apply_remote(remote_delta("r2", 1, 10))
        assert store.get("t", "k").fields["v"] == 11

    def test_events_from_origin_feed(self):
        store = LSDBStore(origin="r1")
        store.insert("t", "a", {})
        store.insert("t", "b", {})
        feed = store.events_from_origin("r1", after_seq=1)
        assert [event.origin_seq for event in feed] == [2]


class TestReads:
    def test_entities_of_type_excludes_dead_by_default(self):
        store = LSDBStore()
        store.insert("order", "o1", {})
        store.insert("order", "o2", {})
        store.tombstone("order", "o2")
        assert {s.entity_key for s in store.entities_of_type("order")} == {"o1"}
        assert len(store.entities_of_type("order", live_only=False)) == 2

    def test_rollup_from_scratch_matches_cache(self):
        store = LSDBStore()
        store.insert("acct", "a", {"bal": 0})
        store.apply_delta("acct", "a", Delta.add("bal", 42))
        fresh = store.rollup_from_scratch()
        assert fresh[("acct", "a")].fields == store.get("acct", "a").fields

    def test_state_as_of_time_travel(self):
        store = LSDBStore()
        store.enable_checkpoints(CheckpointPolicy(every_events=2))
        store.insert("acct", "a", {"bal": 0})
        store.apply_delta("acct", "a", Delta.add("bal", 10))
        store.apply_delta("acct", "a", Delta.add("bal", 10))
        past = store.state_as_of(2)
        assert past[("acct", "a")].fields["bal"] == 10

    def test_history_spans_archive_and_live_log(self):
        store = LSDBStore()
        store.insert("acct", "a", {"bal": 0})
        for _ in range(4):
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        store.compact(keep_recent=1)
        history = store.history("acct", "a")
        # 4 archived raw events + 1 summary + 1 live delta
        assert len(history) == 6

    def test_query_via_index_is_stale_until_refresh(self):
        store = LSDBStore()
        store.register_index("order", "status")
        store.insert("order", "o1", {"status": "open"})
        assert store.query("order", "status", "open") == set()
        store.refresh_indexes()
        assert store.query("order", "status", "open") == {"o1"}

    def test_query_without_index_raises(self):
        store = LSDBStore()
        with pytest.raises(KeyError):
            store.query("order", "status", "open")

    def test_current_state_returns_copies(self):
        store = LSDBStore()
        store.insert("t", "a", {"v": 1})
        snapshot = store.current_state()
        snapshot[("t", "a")].fields["v"] = 99
        assert store.get("t", "a").fields["v"] == 1


class TestCompactionIntegration:
    def test_compact_preserves_observable_state(self):
        store = LSDBStore()
        store.insert("acct", "a", {"bal": 0})
        for _ in range(9):
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        before = store.get("acct", "a").fields["bal"]
        store.compact(keep_recent=2)
        assert store.rollup_from_scratch()[("acct", "a")].fields["bal"] == before
        assert store.live_events < 10
