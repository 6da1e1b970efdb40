"""The append-only event log — one per serialization unit.

Paper principle 2.5: "A single organization may partition data by entity
type and key, where partitions are managed as separate 'serialization
units' with separate logs."  An :class:`AppendOnlyLog` is such a log:
appends are totally ordered by LSN within the log, and there is no
cross-log ordering (that absence is precisely what makes cross-partition
transactions expensive, measured in experiment E3).

Since PR 6 the log is *columnar*: events live in an
:class:`~repro.lsdb.columnar.EventColumns` arena (parallel C arrays plus
interned strings) and the log itself only tracks which arena rows are
live, in what order.  Feed methods return
:class:`~repro.lsdb.columnar.EventSlice` views — lightweight
``(arena, rows)`` pairs that materialize :class:`LogEvent` objects
lazily — instead of list copies.

The only structural mutation besides append is :meth:`rewrite_prefix`,
used by compaction (:mod:`repro.lsdb.compaction`) to replace a prefix of
old events with summary events — the "data summarization and archival
functionality" of principle 2.7.  The arena is immortal: a rewrite
changes the live row set, never the rows, so views handed out before a
compaction (per-origin anti-entropy feeds, archives) stay valid.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import defaultdict, deque
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

from repro.errors import ReproError
from repro.lsdb.columnar import (
    _EMPTY_TAGS,
    ColumnFrame,
    EventColumns,
    EventSlice,
)
from repro.lsdb.events import EventKind, LogEvent

_TYPE_OF = itemgetter(0)
#: A new per-entity row bucket: ``array('q')``, 8 bytes an entry.
_ROW_BUCKET = partial(array, "q")


class AppendOnlyLog:
    """An ordered, in-memory, append-only sequence of :class:`LogEvent`.

    LSNs start at 1 and never repeat, even across compactions: a rewrite
    may *remove* LSNs from the live log but never reassigns them, so
    "events since LSN x" remains meaningful to subscribers after a
    compaction.

    Storage is columnar: one :class:`EventColumns` arena per log, with
    the live log represented as either *all arena rows in order* (the
    common, never-compacted case — no per-row bookkeeping at all, and
    feed positions are pure arithmetic because live LSNs are exactly
    ``1..n``) or an explicit row list plus a parallel LSN array after
    the first :meth:`rewrite_prefix`.

    Feeds are indexed: :meth:`since` / :meth:`up_to` are O(log n) to
    locate plus O(1) to return (they hand back views, not copies), and
    per-entity / per-type row indexes make :meth:`for_entity` and
    :meth:`for_type_since` O(result) integers copied rather than
    O(result) objects.

    Two append-notification channels serve the two kinds of consumer
    (neither materializes a :class:`LogEvent`):

    * :meth:`subscribe_columnar` — ``(on_row, on_batch)`` pairs that
      read columns directly; the store's incremental cache lives here.
    * :meth:`subscribe_counts` — append-count callbacks for consumers
      that only meter volume (checkpoint cadence).

    Args:
        name: Diagnostic name (usually the owning serialization unit).
    """

    def __init__(self, name: str = "log"):
        self.name = name
        self._cols = EventColumns()
        #: ``None`` means "every arena row is live, in row order" — and,
        #: because appends assign sequential LSNs from 1, live LSNs are
        #: then exactly ``1..len(arena)``.  After the first prefix
        #: rewrite this becomes an explicit row list.
        self._rows: Optional[list[int]] = None
        #: Parallel ``lsn`` array for the explicit-row regime (unused
        #: while ``_rows is None``).
        self._live_lsns: list[int] = []
        #: True while live LSNs form one gap-free run (enables the
        #: arithmetic position fast path in the explicit-row regime).
        self._contiguous = True
        #: ref id -> live arena rows for that entity, in LSN order, as
        #: ``array('q')`` (a ``defaultdict`` so the batch indexer appends
        #: with C-level ``map``s; readers only ``.get``).
        self._by_ref: defaultdict[int, array] = defaultdict(_ROW_BUCKET)
        #: entity type -> (rows, parallel lsns) in LSN order, as
        #: ``array('q')`` (8 bytes an entry, not a list's boxed int).
        self._by_type: dict[str, tuple[array, array]] = {}
        self._next_lsn = 1
        self._columnar: list[tuple[Callable, Callable]] = []
        self._counts: list[Callable[[int], None]] = []

    @property
    def arena(self) -> EventColumns:
        """The backing columnar arena (shared with views)."""
        return self._cols

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def append(self, event: LogEvent) -> LogEvent:
        """Append ``event``, assigning the next LSN.

        Returns:
            The stored event (a copy of ``event`` with its LSN set).
        """
        lsn = self._next_lsn
        self.append_row(
            event.timestamp, event.entity_type, event.entity_key, event.kind,
            event.payload, event.origin, event.origin_seq, event.tx_id,
            event.schema_version, event.tags, event.trace_id, event.span_id,
        )
        return event.with_lsn(lsn)

    def append_row(
        self,
        timestamp: float,
        entity_type: str,
        entity_key: str,
        kind: EventKind,
        payload: Mapping[str, Any],
        origin: str = "local",
        origin_seq: int = 0,
        tx_id: str = "",
        schema_version: int = 1,
        tags: frozenset[str] = _EMPTY_TAGS,
        trace_id: str = "",
        span_id: str = "",
    ) -> int:
        """Append one event from loose fields, without constructing a
        :class:`LogEvent` — the one body that writes a row's columns.
        The hot ingestion path: nine C-array/list appends and two
        interning probes into the arena, and the row indexed
        (:meth:`_index_rows` for a run of one), all inline, since at
        millions of calls each call saved is measurable.

        Returns:
            The arena row of the new event (its LSN is
            ``arena.lsns[row]``).
        """
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        cols = self._cols
        row = len(cols.lsns)
        cols.lsns.append(lsn)
        cols.timestamps.append(timestamp)
        cols.kinds.append(kind.code)
        by_key = cols._ref_lookup.get(entity_type)
        if by_key is None:
            by_key = cols._ref_lookup[entity_type] = {}
        rid = by_key.get(entity_key)
        if rid is None:
            rid = by_key[entity_key] = len(cols.ref_tuples)
            cols.ref_tuples.append((entity_type, entity_key))
        cols.ref_ids.append(rid)
        origins = cols.origins
        oid = origins.ids.get(origin)
        if oid is None:
            oid = origins.intern(origin)
        cols.origin_ids.append(oid)
        cols.origin_seqs.append(origin_seq)
        cols.schema_versions.append(schema_version)
        cols.payloads.append(payload)
        cols.tx_ids.append(tx_id)
        if tags:
            cols.tags[row] = tags
        if trace_id:
            cols.trace_ids[row] = trace_id
        if span_id:
            cols.span_ids[row] = span_id
        live = self._rows
        if live is not None:
            lsns = self._live_lsns
            if lsns and lsn != lsns[-1] + 1:
                self._contiguous = False
            elif not lsns:
                self._contiguous = True
            live.append(row)
            lsns.append(lsn)
        self._by_ref[rid].append(row)
        entry = self._by_type.get(entity_type)
        if entry is None:
            self._by_type[entity_type] = (array("q", (row,)), array("q", (lsn,)))
        else:
            entry[0].append(row)
            entry[1].append(lsn)
        for on_row, _on_batch in self._columnar:
            on_row(cols, row)
        for counter in self._counts:
            counter(1)
        return row

    def extend_frame(
        self, frame: ColumnFrame, start: int, stop: int
    ) -> EventSlice:
        """Bulk-append frame positions ``[start, stop)`` — the decode
        half of the zero-copy codec, at a cost per frame, not per row.

        The arena takes the columns (:meth:`EventColumns.append_frame`:
        array-slice extends, the frame's ref and origin tables interned
        once, codes translated by C-level ``map``s, the sparse columns'
        entries in range copied), LSNs are re-stamped with this log's
        sequence, and :meth:`_index_rows` indexes the run in one batch.
        Subscribers get one ``on_batch`` for the whole run.

        Returns:
            An :class:`EventSlice` over the newly appended rows.
        """
        count = stop - start
        first_lsn = self._next_lsn
        self._next_lsn = first_lsn + count
        cols = self._cols
        rows = cols.append_frame(frame, start, stop, first_lsn)
        self._index_rows(rows, cols.lsns[rows.start:rows.stop])
        view = EventSlice(cols, rows)
        for _on_row, on_batch in self._columnar:
            on_batch(view)
        for counter in self._counts:
            counter(count)
        return view

    def _index_rows(self, rows, lsns) -> None:
        """Index live ``rows`` (parallel ascending ``lsns``, appended
        after every row already indexed) — the one indexer every append
        path and :meth:`rewrite_prefix` share (:meth:`append_row` inlines
        its run of one).

        Per-entity buckets append through C-level ``map``s; a run of a
        single entity type (always, in an arena that has seen one)
        extends that type's row and LSN arrays whole, and only a
        mixed-type run walks its rows.
        """
        if not rows:
            return
        cols = self._cols
        if isinstance(rows, range):
            rids = cols.ref_ids[rows.start:rows.stop]
        else:
            rids = list(map(cols.ref_ids.__getitem__, rows))
        live = self._rows
        if live is not None:
            live_lsns = self._live_lsns
            if not live_lsns:
                self._contiguous = lsns[-1] - lsns[0] + 1 == len(lsns)
            elif self._contiguous:
                self._contiguous = (
                    lsns[0] == live_lsns[-1] + 1
                    and lsns[-1] - lsns[0] + 1 == len(lsns)
                )
            live.extend(rows)
            live_lsns.extend(lsns)
        # ``bucket.append(row)`` per row, driven by a zero-length deque so
        # the loop runs in C (a missing bucket is the defaultdict's array).
        deque(map(array.append, map(self._by_ref.__getitem__, rids), rows), 0)
        by_type = self._by_type
        known = cols.entity_types()
        if len(known) == 1:
            (single,) = known
        else:
            types = list(map(_TYPE_OF, map(cols.ref_tuples.__getitem__, rids)))
            single = types[0] if types.count(types[0]) == len(types) else None
        if single is not None:
            entry = by_type.get(single)
            if entry is None:
                entry = by_type[single] = (array("q"), array("q"))
            entry[0].extend(rows)
            entry[1].extend(lsns)
            return
        for entity_type, row, lsn in zip(types, rows, lsns):
            entry = by_type.get(entity_type)
            if entry is None:
                entry = by_type[entity_type] = (array("q"), array("q"))
            entry[0].append(row)
            entry[1].append(lsn)

    # ------------------------------------------------------------------ #
    # Subscriptions
    # ------------------------------------------------------------------ #

    def subscribe_columnar(
        self,
        on_row: Callable[[EventColumns, int], None],
        on_batch: Callable[[EventSlice], None],
    ) -> None:
        """Columnar append notifications: ``on_row(arena, row)`` per
        single append, ``on_batch(view)`` per bulk frame apply, ``view``
        being the non-empty, contiguous run of rows just appended (the
        two are exclusive — a bulk apply fires one ``on_batch``, not n
        ``on_row`` calls)."""
        self._columnar.append((on_row, on_batch))

    def subscribe_counts(self, callback: Callable[[int], None]) -> None:
        """Invoke ``callback(n)`` after every append of ``n`` events —
        for cadence meters (checkpoints, snapshots) that never look at
        the events themselves."""
        self._counts.append(callback)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    @property
    def head_lsn(self) -> int:
        """LSN of the most recent event (0 if the log is empty)."""
        if self._rows is None:
            return self._next_lsn - 1 if len(self._cols) else 0
        return self._live_lsns[-1] if self._live_lsns else 0

    @property
    def tail_lsn(self) -> int:
        """LSN of the oldest *live* event (0 if empty); events below
        this were compacted away."""
        if self._rows is None:
            return 1 if len(self._cols) else 0
        return self._live_lsns[0] if self._live_lsns else 0

    def __len__(self) -> int:
        if self._rows is None:
            return len(self._cols)
        return len(self._rows)

    def __iter__(self) -> Iterator[LogEvent]:
        return self.iter_since(0)

    def _live_rows(self):
        if self._rows is None:
            return range(len(self._cols))
        return self._rows

    def events(self) -> EventSlice:
        """A view of the live events, in LSN order (zero-copy while the
        log has never been compacted)."""
        return EventSlice(self._cols, self._live_rows())

    def since(self, lsn: int) -> EventSlice:
        """Events with LSN strictly greater than ``lsn``.

        This is the replication/catch-up primitive: a subscriber that
        has applied up to ``lsn`` calls ``since(lsn)`` to fetch its
        backlog.  O(log n) to locate; the result is a view, so nothing
        is materialized until the caller actually touches events.
        """
        low = self._bisect_gt(lsn)
        if self._rows is None:
            return EventSlice(self._cols, range(low, len(self._cols)))
        return EventSlice(self._cols, self._rows[low:])

    def iter_since(self, lsn: int) -> Iterator[LogEvent]:
        """Lazily iterate events with LSN strictly greater than ``lsn``.

        The zero-copy streaming variant of :meth:`since`: no row list is
        copied even in the post-compaction regime, and each event
        materializes only as the iterator reaches it.  The view is live
        — appends made during iteration are yielded; don't do that.
        """
        low = self._bisect_gt(lsn)
        cols = self._cols
        event_at = cols.event_at
        if self._rows is None:
            for row in range(low, len(cols)):
                yield event_at(row)
        else:
            rows = self._rows
            for index in range(low, len(rows)):
                yield event_at(rows[index])

    def up_to(self, lsn: int) -> EventSlice:
        """Events with LSN less than or equal to ``lsn``."""
        high = self._bisect_gt(lsn)
        if self._rows is None:
            return EventSlice(self._cols, range(0, high))
        return EventSlice(self._cols, self._rows[:high])

    def between(self, after_lsn: int, up_to_lsn: int) -> EventSlice:
        """Events with ``after_lsn < LSN <= up_to_lsn`` (the bounded
        catch-up feed snapshot replay uses)."""
        low = self._bisect_gt(after_lsn)
        high = self._bisect_gt(up_to_lsn)
        if high < low:
            high = low
        if self._rows is None:
            return EventSlice(self._cols, range(low, high))
        return EventSlice(self._cols, self._rows[low:high])

    def count_between(self, after_lsn: int, up_to_lsn: int) -> int:
        """How many live events fall in ``(after_lsn, up_to_lsn]``,
        without materialising them."""
        return max(0, self._bisect_gt(up_to_lsn) - self._bisect_gt(after_lsn))

    def last_lsn_at_or_below(self, lsn: int) -> int:
        """The largest live LSN <= ``lsn`` (0 if none)."""
        high = self._bisect_gt(lsn)
        if not high:
            return 0
        if self._rows is None:
            return high  # live LSNs are exactly 1..n
        return self._live_lsns[high - 1]

    def for_entity(self, entity_type: str, entity_key: str) -> EventSlice:
        """The full history of one entity, in LSN order.

        This is the audit/history view principle 2.7 calls for ("past
        descriptions are available"), e.g. tracing which operations
        drove inventory negative (principle 2.1).  Served from the
        per-entity row index: O(result) integers, no object copies.
        """
        rid = self._cols.lookup_ref(entity_type, entity_key)
        if rid is None:
            return EventSlice(self._cols, ())
        rows = self._by_ref.get(rid)
        if rows is None:
            return EventSlice(self._cols, ())
        return EventSlice(self._cols, rows[:])

    def entity_head_lsn(self, entity_type: str, entity_key: str) -> int:
        """The LSN of the entity's newest live event (0 if it has none)
        — two dictionary lookups and one array index, no view, no
        materialization."""
        rid = self._cols.lookup_ref(entity_type, entity_key)
        if rid is None:
            return 0
        rows = self._by_ref.get(rid)
        if not rows:
            return 0
        return self._cols.lsns[rows[-1]]

    def for_type_since(
        self,
        entity_type: str,
        lsn: int,
        up_to_lsn: Optional[int] = None,
    ) -> EventSlice:
        """Events of one entity type with ``lsn < LSN <= up_to_lsn``
        (``up_to_lsn=None`` means the head), in LSN order.

        Secondary-index refresh catches up from this feed so its cost
        scales with the matching events, not with the whole suffix.
        """
        entry = self._by_type.get(entity_type)
        if entry is None:
            return EventSlice(self._cols, ())
        rows, lsns = entry
        low = bisect_right(lsns, lsn)
        high = len(rows) if up_to_lsn is None else bisect_right(lsns, up_to_lsn)
        return EventSlice(self._cols, rows[low:high])

    def _bisect_gt(self, lsn: int) -> int:
        """Position of the first live event with LSN > ``lsn``."""
        if self._rows is None:
            # Live LSNs are exactly 1..n: pure arithmetic.
            count = len(self._cols)
            if lsn <= 0:
                return 0
            return count if lsn >= count else lsn
        lsns = self._live_lsns
        if not lsns:
            return 0
        if self._contiguous:
            if lsn < lsns[0]:
                return 0
            return min(len(lsns), lsn - lsns[0] + 1)
        return bisect_right(lsns, lsn)

    # ------------------------------------------------------------------ #
    # Compaction support
    # ------------------------------------------------------------------ #

    def rewrite_prefix(
        self,
        up_to_lsn: int,
        replacement: Iterable[LogEvent],
    ) -> EventSlice:
        """Replace all events with LSN <= ``up_to_lsn`` by ``replacement``.

        Replacement events must already carry LSNs within the replaced
        range and in ascending order (the compactor reuses the LSN of the
        last summarised event so "since" queries stay correct).

        The arena keeps the replaced rows forever — only the live row
        set changes — so previously handed-out views (per-origin feeds,
        archives) remain valid.

        Returns:
            A view of the removed events (the caller archives them).

        Raises:
            ReproError: If a replacement event's LSN falls outside the
                replaced range or breaks ordering.
        """
        replacement_list = list(replacement)
        previous = 0
        for event in replacement_list:
            if event.lsn <= previous or event.lsn > up_to_lsn:
                raise ReproError(
                    f"replacement LSN {event.lsn} outside (0, {up_to_lsn}]"
                )
            previous = event.lsn
        cols = self._cols
        live = self._live_rows()
        cut = self._bisect_gt(up_to_lsn)
        removed = EventSlice(cols, live[:cut])
        kept = live[cut:]
        # Summary rows reuse the LSNs they replace and are not appends:
        # :meth:`append_row` writes them with no subscriber notified and
        # the LSN counter put back, and each is then stamped with its
        # event's LSN.  The indexing it does is rebuilt below.
        subscribers, counters, next_lsn = self._columnar, self._counts, self._next_lsn
        self._columnar, self._counts = [], []
        rows = []
        try:
            for event in replacement_list:
                row = self.append_row(
                    event.timestamp, event.entity_type, event.entity_key,
                    event.kind, event.payload, event.origin, event.origin_seq,
                    event.tx_id, event.schema_version, event.tags,
                    event.trace_id, event.span_id,
                )
                cols.lsns[row] = event.lsn
                rows.append(row)
        finally:
            self._columnar, self._counts = subscribers, counters
            self._next_lsn = next_lsn
        rows.extend(kept)
        self._rows = []
        self._live_lsns = []
        self._contiguous = True
        self._by_ref = defaultdict(_ROW_BUCKET)
        self._by_type = {}
        self._index_rows(rows, list(map(cols.lsns.__getitem__, rows)))
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AppendOnlyLog({self.name!r}, live={len(self)}, "
            f"head={self.head_lsn})"
        )
