"""Tests for asynchronously maintained secondary indexes."""

from __future__ import annotations

from repro.lsdb.columnar import ColumnFrame, EventColumns
from repro.lsdb.events import EventKind, LogEvent
from repro.lsdb.log import AppendOnlyLog
from repro.lsdb.index import SecondaryIndex
from repro.lsdb.rollup import Rollup
from repro.lsdb.store import LSDBStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def insert(key, fields, etype="order"):
    return LogEvent(
        lsn=0, timestamp=0.0, entity_type=etype, entity_key=key,
        kind=EventKind.INSERT, payload=fields,
    )


def set_fields(key, fields, etype="order", ts=1.0):
    return LogEvent(
        lsn=0, timestamp=ts, entity_type=etype, entity_key=key,
        kind=EventKind.SET_FIELDS, payload=fields,
    )


def tombstone(key, etype="order"):
    return LogEvent(
        lsn=0, timestamp=2.0, entity_type=etype, entity_key=key,
        kind=EventKind.TOMBSTONE,
    )


def make_index():
    log = AppendOnlyLog()
    index = SecondaryIndex(log, Rollup(), "order", "status")
    return log, index


class TestStaleness:
    def test_index_is_stale_until_refreshed(self):
        log, index = make_index()
        log.append(insert("o1", {"status": "open"}))
        assert index.lookup("open") == set()  # async: not applied yet
        assert index.lag == 1
        index.refresh()
        assert index.lookup("open") == {"o1"}
        assert index.lag == 0

    def test_partial_refresh_to_fixed_lsn(self):
        log, index = make_index()
        log.append(insert("o1", {"status": "open"}))
        log.append(insert("o2", {"status": "open"}))
        index.refresh(up_to_lsn=1)
        assert index.lookup("open") == {"o1"}
        assert index.lag == 1


class TestMaintenance:
    def test_value_change_moves_between_buckets(self):
        log, index = make_index()
        log.append(insert("o1", {"status": "open"}))
        log.append(set_fields("o1", {"status": "closed"}))
        index.refresh()
        assert index.lookup("open") == set()
        assert index.lookup("closed") == {"o1"}

    def test_tombstoned_entity_leaves_index(self):
        log, index = make_index()
        log.append(insert("o1", {"status": "open"}))
        log.append(tombstone("o1"))
        index.refresh()
        assert index.lookup("open") == set()

    def test_other_types_ignored(self):
        log, index = make_index()
        log.append(insert("c1", {"status": "open"}, etype="customer"))
        index.refresh()
        assert index.lookup("open") == set()
        assert index.lag == 0  # still consumed the LSN

    def test_multiple_entities_same_value(self):
        log, index = make_index()
        log.append(insert("o1", {"status": "open"}))
        log.append(insert("o2", {"status": "open"}))
        index.refresh()
        assert index.lookup("open") == {"o1", "o2"}

    def test_refresh_is_incremental(self):
        log, index = make_index()
        log.append(insert("o1", {"status": "open"}))
        assert index.refresh() == 1
        assert index.refresh() == 0
        log.append(insert("o2", {"status": "open"}))
        assert index.refresh() == 1

    def test_lookup_returns_copy(self):
        log, index = make_index()
        log.append(insert("o1", {"status": "open"}))
        index.refresh()
        result = index.lookup("open")
        result.add("bogus")
        assert index.lookup("open") == {"o1"}


class TestTracedRefresh:
    """Tracing only opens and closes a span per refreshed row: the
    refresh folds the same arena rows, materialises no event, and ends
    where the untraced one does."""

    @staticmethod
    def fed(tracer):
        metrics = MetricsRegistry()
        store = LSDBStore("s", origin="local", tracer=tracer, metrics=metrics)
        index = store.register_index("order", "status")
        peer = LSDBStore("peer", origin="peer", tracer=tracer)
        store.insert("order", "o1", {"status": "open"})
        store.insert("customer", "c1", {"status": "open"})
        peer.insert("order", "o2", {"status": "open"})
        peer.set_fields("order", "o1", {"status": "held"})
        store.apply_remote_frame(ColumnFrame.from_slice(peer.events_since(0)))
        store.set_fields("order", "o2", {"status": "closed"})
        peer.insert("order", "o3", {"status": "open"})
        peer.tombstone("order", "o2")
        # Out of order through the single-event edge: buffered, drained.
        first, second = peer.events_since(2)
        store.apply_remote(second)
        store.apply_remote(first)
        return store, index, metrics

    def test_traced_refresh_materialises_nothing_and_matches_untraced(self, monkeypatch):
        materialised = []
        event_at = EventColumns.event_at
        monkeypatch.setattr(
            EventColumns,
            "event_at",
            lambda cols, row: materialised.append(row) or event_at(cols, row),
        )
        tracer = Tracer()
        traced, traced_index, traced_metrics = self.fed(tracer)
        plain, plain_index, plain_metrics = self.fed(None)

        materialised.clear()
        assert traced_index.refresh(up_to_lsn=3) == plain_index.refresh(up_to_lsn=3)
        assert traced_index.refresh() == plain_index.refresh() == 4
        assert materialised == []

        assert traced_index.applied_lsn == plain_index.applied_lsn == 7
        assert traced_index.snapshot().buckets == plain_index.snapshot().buckets
        assert traced_index.snapshot().states == plain_index.snapshot().states
        assert plain_index.lookup("open") == {"o3"}
        assert plain_index.lookup("held") == {"o1"}
        label = {"index": "order.status"}
        assert traced_metrics.value("index.refreshed", **label) == 7
        assert plain_metrics.value("index.refreshed", **label) == 7

        spans = [span for span in tracer.spans if span.name == "index.refresh"]
        order_lsns = [e.lsn for e in traced.log.events() if e.entity_type == "order"]
        assert [span.attrs["lsn"] for span in spans] == order_lsns
        # Each chains to the span that stored its row at this store.
        stored = {s.span_id for s in tracer.spans if s.name in ("store.append", "store.apply")}
        assert all(span.parent_id in stored for span in spans)
