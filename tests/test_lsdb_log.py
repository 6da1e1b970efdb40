"""Tests for the append-only log."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.lsdb.events import EventKind, LogEvent
from repro.lsdb.log import AppendOnlyLog


def make_event(key="k", kind=EventKind.INSERT, payload=None, etype="t"):
    return LogEvent(
        lsn=0,
        timestamp=0.0,
        entity_type=etype,
        entity_key=key,
        kind=kind,
        payload=payload or {},
    )


class TestAppend:
    def test_lsns_are_sequential_from_one(self):
        log = AppendOnlyLog()
        stored = [log.append(make_event()) for _ in range(3)]
        assert [event.lsn for event in stored] == [1, 2, 3]

    def test_append_does_not_mutate_input(self):
        log = AppendOnlyLog()
        event = make_event()
        log.append(event)
        assert event.lsn == 0  # the input copy keeps its placeholder

    def test_head_and_tail_lsn(self):
        log = AppendOnlyLog()
        assert log.head_lsn == 0 and log.tail_lsn == 0
        log.append(make_event())
        log.append(make_event())
        assert log.head_lsn == 2
        assert log.tail_lsn == 1

    def test_subscribers_see_every_append(self):
        log = AppendOnlyLog()
        seen = []
        log.subscribe_columnar(
            lambda arena, row: seen.append(arena.lsns[row]),
            lambda view: seen.extend(view.lsn_at(i) for i in range(len(view))),
        )
        log.append(make_event())
        log.append(make_event())
        assert seen == [1, 2]


class TestReading:
    def test_since_returns_strict_suffix(self):
        log = AppendOnlyLog()
        for _ in range(5):
            log.append(make_event())
        assert [event.lsn for event in log.since(2)] == [3, 4, 5]
        assert log.since(5) == []
        assert [event.lsn for event in log.since(0)] == [1, 2, 3, 4, 5]

    def test_up_to_is_inclusive(self):
        log = AppendOnlyLog()
        for _ in range(4):
            log.append(make_event())
        assert [event.lsn for event in log.up_to(2)] == [1, 2]

    def test_for_entity_filters_history(self):
        log = AppendOnlyLog()
        log.append(make_event(key="a"))
        log.append(make_event(key="b"))
        log.append(make_event(key="a", kind=EventKind.DELTA))
        history = log.for_entity("t", "a")
        assert [event.kind for event in history] == [
            EventKind.INSERT,
            EventKind.DELTA,
        ]


class TestRewrite:
    def _filled_log(self, count=6):
        log = AppendOnlyLog()
        for _ in range(count):
            log.append(make_event())
        return log

    def test_rewrite_prefix_replaces_events(self):
        log = self._filled_log()
        summary = LogEvent(
            lsn=4, timestamp=0.0, entity_type="t", entity_key="k",
            kind=EventKind.SUMMARY, payload={"v": 1},
        )
        removed = log.rewrite_prefix(4, [summary])
        assert len(removed) == 4
        assert [event.lsn for event in log] == [4, 5, 6]

    def test_lsns_never_reassigned_after_rewrite(self):
        log = self._filled_log()
        log.rewrite_prefix(4, [])
        appended = log.append(make_event())
        assert appended.lsn == 7

    def test_since_remains_correct_after_rewrite(self):
        log = self._filled_log()
        log.rewrite_prefix(3, [])
        assert [event.lsn for event in log.since(4)] == [5, 6]

    def test_replacement_lsn_out_of_range_rejected(self):
        log = self._filled_log()
        bad = LogEvent(
            lsn=9, timestamp=0.0, entity_type="t", entity_key="k",
            kind=EventKind.SUMMARY,
        )
        with pytest.raises(ReproError):
            log.rewrite_prefix(4, [bad])

    def test_replacement_must_be_ascending(self):
        log = self._filled_log()
        first = LogEvent(lsn=3, timestamp=0.0, entity_type="t",
                         entity_key="a", kind=EventKind.SUMMARY)
        second = LogEvent(lsn=2, timestamp=0.0, entity_type="t",
                          entity_key="b", kind=EventKind.SUMMARY)
        with pytest.raises(ReproError):
            log.rewrite_prefix(4, [first, second])


class TestEventRecord:
    def test_identity_is_origin_scoped(self):
        event = LogEvent(
            lsn=0, timestamp=1.0, entity_type="t", entity_key="k",
            kind=EventKind.INSERT, origin="r1", origin_seq=7,
        )
        assert event.identity == ("r1", 7)
        assert event.entity_ref == ("t", "k")

    def test_dict_roundtrip(self):
        event = LogEvent(
            lsn=3, timestamp=2.5, entity_type="order", entity_key="o1",
            kind=EventKind.SET_FIELDS, payload={"total": 9},
            origin="r2", origin_seq=4, tx_id="tx-9",
            schema_version=2, tags=frozenset({"regulatory"}),
        )
        assert LogEvent.from_dict(event.to_dict()) == event
