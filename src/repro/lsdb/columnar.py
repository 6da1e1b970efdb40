"""Columnar event storage: parallel arrays with lazy row materialization.

The log stores every event forever (insert-only storage, principle 2.7),
so raw append/scan throughput is the ceiling on the whole data plane.
PR 5 plateaued at ~500k events/sec created with per-event ``LogEvent``
object churn as the dominant cost: thirteen pointer writes, a payload
reference, an enum member, and two interned strings per record, plus a
Python object header — all for rows whose hot consumers (folds, frame
shipping, version-vector accounting) read two or three fields.

This module is the row-store→column-store shift: an
:class:`EventColumns` *arena* keeps the thirteen logical fields as
parallel columns —

.. code-block:: text

    row          0      1      2      3   ...
    lsns        [1,     2,     3,     4]       array('q')
    timestamps  [0.0,   0.1,   0.4,   0.9]     array('d')
    kinds       [0,     1,     1,     3]       array('b')   EventKind code
    ref_ids     [0,     0,     1,     0]       array('i')   → ref_tuples
    origin_ids  [0,     0,     1,     0]       array('i')   → origins
    origin_seqs [1,     2,     1,     3]       array('q')
    schema_vs   [1,     1,     1,     1]       array('i')
    payloads    [{...}, {...}, {...}, {...}]   list
    tx_ids      ["t1",  "",    "t2",  "t2"]    list         "" = no tx
    (tags/trace/span: sparse dicts keyed by row; frozenset() / "")

— with entity refs and origin replica ids *dictionary-interned*: a
string appears once in the arena no matter how many million rows carry
it, and per-row columns store small integers in C arrays.  A full
:class:`~repro.lsdb.events.LogEvent` is materialized lazily, only when
an API boundary actually needs the object form.

The arena is *immortal*: rows are appended and never moved or freed, so
a row index is a stable forever-name for an event.  Log compaction
(``rewrite_prefix``) changes which rows are *live*, never the rows
themselves — which is exactly what the anti-entropy feeds need, since
they ship raw pre-compaction originals by arena row long after the live
log has been summarised.

Three views complete the picture:

* :class:`EventSlice` — a read-only ``Sequence`` of events backed by
  ``(arena, rows)``; feed methods return these instead of list copies.
* :class:`ColumnFrame` — the zero-copy wire codec: a self-contained,
  immutable frame holding column slices plus frame-local ref/origin
  tables, which a receiver interns once per frame and appends in column
  space.
* ``KIND_CODES`` / ``CODE_KINDS`` — the fixed :class:`EventKind`
  encoding shared by arenas and frames (definition order, so the codes
  are a wire-stable contract).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from operator import itemgetter
from typing import Any, Iterator, Mapping, Optional

from repro.errors import MalformedFrame
from repro.lsdb.events import EventKind, LogEvent

_EMPTY_TAGS: frozenset[str] = frozenset()

# EventKind codes in definition order (``EventKind.code``): INSERT=0,
# DELTA=1, SET_FIELDS=2, TOMBSTONE=3, OBSOLETE=4, SUMMARY=5.  Global
# constants shared by every arena and every frame, so decode never
# translates kind codes.
KIND_CODES: dict[EventKind, int] = {kind: kind.code for kind in EventKind}
CODE_KINDS: tuple[EventKind, ...] = tuple(EventKind)

_TYPE_OF = itemgetter(0)
_KEY_OF = itemgetter(1)


def ascends_by_one(values: array) -> bool:
    """Whether ``values`` (a non-empty integer array) is ``v, v+1, …``
    — one C-level comparison, no per-element Python step."""
    first = values[0]
    return values[-1] - first == len(values) - 1 and values.tolist() == list(
        range(first, first + len(values))
    )


class StringDictionary:
    """Bidirectional string interning: string ↔ dense integer id.

    One dictionary lookup on the append path (``dict.setdefault``), one
    list index on the read path.  Ids are dense and allocation-ordered,
    so a column of ids round-trips through ``array('i')``.

    ``ids`` and ``values`` are the two directions as plain containers,
    for hot paths that intern or resolve inline; only :meth:`intern`
    and :meth:`intern_all` add to them.
    """

    __slots__ = ("ids", "values")

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.values: list[str] = []

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, value: str) -> int:
        """Id for ``value``, allocating one on first sight."""
        ident = self.ids.setdefault(value, len(self.values))
        if ident == len(self.values):
            self.values.append(value)
        return ident

    def intern_all(self, values: list[str]) -> list[int]:
        """Ids for ``values`` in order (a frame's origin table), with
        no Python call per entry."""
        ids = self.ids
        known = self.values
        idents = []
        for value in values:
            ident = ids.setdefault(value, len(known))
            if ident == len(known):
                known.append(value)
            idents.append(ident)
        return idents

    def value(self, ident: int) -> str:
        """The string behind ``ident`` (O(1) list index)."""
        return self.values[ident]

    def lookup(self, value: str) -> Optional[int]:
        """Id for ``value`` if already interned, else ``None``."""
        return self._ids.get(value)


class EventColumns:
    """The immortal columnar arena: one growing column per event field.

    Rows are append-only and never freed; every integer row index handed
    out stays valid for the life of the arena.  Entity refs are interned
    through a two-level string map (type → key → ref id) so the append
    path never allocates a lookup tuple, and ``ref_tuples`` keeps one
    shared ``(type, key)`` tuple per distinct entity for the read path.
    """

    __slots__ = (
        "lsns",
        "timestamps",
        "kinds",
        "ref_ids",
        "origin_ids",
        "origin_seqs",
        "schema_versions",
        "payloads",
        "origins",
        "ref_tuples",
        "_ref_lookup",
        "tx_ids",
        "tags",
        "trace_ids",
        "span_ids",
    )

    def __init__(self) -> None:
        self.lsns = array("q")
        self.timestamps = array("d")
        self.kinds = array("b")
        self.ref_ids = array("i")
        self.origin_ids = array("i")
        self.origin_seqs = array("q")
        self.schema_versions = array("i")
        self.payloads: list[Mapping[str, Any]] = []
        self.origins = StringDictionary()
        self.ref_tuples: list[tuple[str, str]] = []
        self._ref_lookup: dict[str, dict[str, int]] = {}
        # Dense: every transactional commit stamps its rows, and a list
        # entry (8 bytes) costs less than a dict entry and a boxed row.
        self.tx_ids: list[str] = []
        # Sparse columns: almost every row has the default (the empty
        # tag set or ""), so a dict keyed by row beats a dense column.
        self.tags: dict[int, frozenset[str]] = {}
        self.trace_ids: dict[int, str] = {}
        self.span_ids: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.lsns)

    # ------------------------------------------------------------- #
    # Interning
    # ------------------------------------------------------------- #

    def ref_id(self, entity_type: str, entity_key: str) -> int:
        """Intern ``(entity_type, entity_key)``; returns its dense id."""
        by_key = self._ref_lookup.get(entity_type)
        if by_key is None:
            by_key = self._ref_lookup[entity_type] = {}
        rid = by_key.get(entity_key)
        if rid is None:
            rid = by_key[entity_key] = len(self.ref_tuples)
            self.ref_tuples.append((entity_type, entity_key))
        return rid

    def entity_types(self):
        """Every entity type interned so far (a live keys view)."""
        return self._ref_lookup.keys()

    def lookup_ref(self, entity_type: str, entity_key: str) -> Optional[int]:
        """Ref id if the entity has ever been seen, else ``None``."""
        by_key = self._ref_lookup.get(entity_type)
        if by_key is None:
            return None
        return by_key.get(entity_key)

    # ------------------------------------------------------------- #
    # Appends (a single row is written by ``AppendOnlyLog.append_row``)
    # ------------------------------------------------------------- #

    def intern_refs(self, table: list[tuple[str, str]]) -> list[int]:
        """Arena ref ids for a frame's ref table, in table order.

        No Python call per entry: a table whose entries share one entity
        type (the common case) resolves its keys with one C-level
        ``map`` over that type's key map, and only entities new to this
        arena take the loop that allocates ids, in table order.
        """
        lookup = self._ref_lookup
        rids: list = [None] * len(table)
        types = set(map(_TYPE_OF, table))
        if len(types) == 1:
            (entity_type,) = types
            by_key = lookup.get(entity_type)
            if by_key is not None:
                rids = list(map(by_key.get, map(_KEY_OF, table)))
                if None not in rids:
                    return rids
        ref_tuples = self.ref_tuples
        for index, rid in enumerate(rids):
            if rid is None:
                ref = table[index]
                by_key = lookup.get(ref[0])
                if by_key is None:
                    by_key = lookup[ref[0]] = {}
                rid = by_key.get(ref[1])
                if rid is None:
                    rid = by_key[ref[1]] = len(ref_tuples)
                    ref_tuples.append(ref)
                rids[index] = rid
        return rids

    def append_frame(
        self, frame: "ColumnFrame", start: int, stop: int, first_lsn: int
    ) -> range:
        """Append frame positions ``[start, stop)`` under LSNs from
        ``first_lsn``; returns the new arena rows.

        Work per frame, not per row: dense columns extend by array
        slice (a ``memcpy`` each), the frame's ref and origin tables are
        interned once, the per-row codes translate through C-level
        ``map``s, and sparse columns copy their entries in ``[start,
        stop)`` with one comprehension each.
        """
        row0 = len(self.lsns)
        count = stop - start
        self.lsns.extend(range(first_lsn, first_lsn + count))
        self.timestamps.extend(frame.timestamps[start:stop])
        self.kinds.extend(frame.kinds[start:stop])
        self.origin_seqs.extend(frame.origin_seqs[start:stop])
        self.schema_versions.extend(frame.schema_versions[start:stop])
        self.payloads.extend(frame.payloads[start:stop])
        self.tx_ids.extend(frame.tx_ids[start:stop])
        ref_ids = self.intern_refs(frame.ref_table)
        self.ref_ids.extend(map(ref_ids.__getitem__, frame.ref_codes[start:stop]))
        origin_ids = self.origins.intern_all(frame.origin_table)
        if len(origin_ids) == 1:
            self.origin_ids.extend(array("i", origin_ids) * count)
        else:
            self.origin_ids.extend(
                map(origin_ids.__getitem__, frame.origin_codes[start:stop])
            )
        offset = row0 - start
        for source, sink in (
            (frame.tags, self.tags),
            (frame.trace_ids, self.trace_ids),
            (frame.span_ids, self.span_ids),
        ):
            if source:
                sink.update(
                    {
                        index + offset: value
                        for index, value in source.items()
                        if start <= index < stop
                    }
                )
        return range(row0, row0 + count)

    # ------------------------------------------------------------- #
    # Row reads
    # ------------------------------------------------------------- #

    def event_at(self, row: int) -> LogEvent:
        """Materialize the :class:`LogEvent` stored at ``row``."""
        entity_type, entity_key = self.ref_tuples[self.ref_ids[row]]
        return LogEvent.build(
            self.lsns[row],
            self.timestamps[row],
            entity_type,
            entity_key,
            CODE_KINDS[self.kinds[row]],
            self.payloads[row],
            self.origins.value(self.origin_ids[row]),
            self.origin_seqs[row],
            self.tx_ids[row],
            self.schema_versions[row],
            self.tags.get(row, _EMPTY_TAGS),
            self.trace_ids.get(row, ""),
            self.span_ids.get(row, ""),
        )

    def origin_at(self, row: int) -> str:
        """Origin replica id string for ``row``."""
        return self.origins.value(self.origin_ids[row])

    def tags_at(self, row: int) -> frozenset[str]:
        """Tag set for ``row`` (shared empty set when untagged)."""
        return self.tags.get(row, _EMPTY_TAGS)


class EventSlice(Sequence):
    """A read-only view of arena rows that quacks like a list of events.

    Feed methods return these instead of materialized lists: the view is
    ``(arena, rows)`` where ``rows`` is a ``range`` (contiguous suffix —
    zero copies) or a list of row indices.  Events materialize one at a
    time, on access, so a consumer that only reads ``len()`` or the last
    LSN never pays for object construction at all.
    """

    __slots__ = ("arena", "rows")

    def __init__(self, arena: EventColumns, rows) -> None:
        self.arena = arena
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return len(self.rows) > 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventSlice(self.arena, self.rows[index])
        return self.arena.event_at(self.rows[index])

    def __iter__(self) -> Iterator[LogEvent]:
        event_at = self.arena.event_at
        for row in self.rows:
            yield event_at(row)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, EventSlice):
            if self.arena is other.arena and self.rows == other.rows:
                return True
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        if len(other) != len(self.rows):
            return False
        return all(mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other) -> list[LogEvent]:
        return list(self) + list(other)

    def __radd__(self, other) -> list[LogEvent]:
        return list(other) + list(self)

    def __repr__(self) -> str:
        return f"EventSlice({len(self.rows)} rows)"

    def lsn_at(self, index: int) -> int:
        """LSN of the ``index``-th event without materializing it."""
        return self.arena.lsns[self.rows[index]]

    def identities(self) -> list[tuple[str, int]]:
        """All ``(origin, origin_seq)`` identities, built in one bulk
        pass over the columns (no per-event ``LogEvent`` or property
        call)."""
        arena = self.arena
        origin_ids = arena.origin_ids
        seqs = arena.origin_seqs
        value = arena.origins.value
        return [(value(origin_ids[r]), seqs[r]) for r in self.rows]


class ColumnFrame:
    """Zero-copy wire codec: a self-contained batch of event columns.

    Encoding slices the arena's C arrays directly (a ``memcpy``, no
    Python-object hops) and builds *frame-local* dictionaries: each
    distinct entity ref and origin string appears once in the frame's
    ``ref_table`` / ``origin_table``, and the per-event columns carry
    small frame-local codes.  Decoding
    (:meth:`EventColumns.append_frame`) interns each table entry once —
    with no Python call per entry, since on skewed keys a ref table can
    hold about one entry per event — and bulk-extends the receiver's
    arena columns.

    A frame is immutable once encoded: a shipper sends one frame object
    to every peer of a ship round, and the receiving stores only read
    it.  Kind codes are the global ``KIND_CODES`` contract, so they cross
    the wire untranslated.  Payload mappings are shared by reference, as
    the in-memory simulated network shares all message objects.
    """

    __slots__ = (
        "lsns",
        "timestamps",
        "kinds",
        "ref_codes",
        "origin_codes",
        "origin_seqs",
        "schema_versions",
        "payloads",
        "ref_table",
        "origin_table",
        "tx_ids",
        "tags",
        "trace_ids",
        "span_ids",
    )

    def __len__(self) -> int:
        return len(self.lsns)

    @classmethod
    def from_slice(cls, view: EventSlice) -> "ColumnFrame":
        """Encode an :class:`EventSlice` into a frame (C-level passes
        only, apart from the sparse columns)."""
        arena = view.arena
        rows = view.rows
        frame = object.__new__(cls)
        if isinstance(rows, range) and rows.step == 1:
            lo, hi = rows.start, rows.stop
            frame.lsns = arena.lsns[lo:hi]
            frame.timestamps = arena.timestamps[lo:hi]
            frame.kinds = arena.kinds[lo:hi]
            frame.origin_seqs = arena.origin_seqs[lo:hi]
            frame.schema_versions = arena.schema_versions[lo:hi]
            frame.payloads = arena.payloads[lo:hi]
            frame.tx_ids = arena.tx_ids[lo:hi]
            ref_codes = arena.ref_ids[lo:hi]
            origin_codes = arena.origin_ids[lo:hi]
        else:
            frame.lsns = array("q", map(arena.lsns.__getitem__, rows))
            frame.timestamps = array("d", map(arena.timestamps.__getitem__, rows))
            frame.kinds = array("b", map(arena.kinds.__getitem__, rows))
            frame.origin_seqs = array("q", map(arena.origin_seqs.__getitem__, rows))
            frame.schema_versions = array(
                "i", map(arena.schema_versions.__getitem__, rows)
            )
            frame.payloads = list(map(arena.payloads.__getitem__, rows))
            frame.tx_ids = list(map(arena.tx_ids.__getitem__, rows))
            ref_codes = array("i", map(arena.ref_ids.__getitem__, rows))
            origin_codes = array("i", map(arena.origin_ids.__getitem__, rows))
        # Re-code arena ids to frame-local tables: one table entry per
        # distinct value, in first-appearance order, found and applied
        # with C-level passes (``dict.fromkeys`` keeps first appearance).
        ref_table_ids = list(dict.fromkeys(ref_codes))
        ref_table = list(map(arena.ref_tuples.__getitem__, ref_table_ids))
        ref_map = dict(zip(ref_table_ids, range(len(ref_table_ids))))
        ref_codes = array("i", map(ref_map.__getitem__, ref_codes))
        origin_table_ids = list(dict.fromkeys(origin_codes))
        origin_table = list(map(arena.origins.values.__getitem__, origin_table_ids))
        origin_map = dict(zip(origin_table_ids, range(len(origin_table_ids))))
        origin_codes = array("i", map(origin_map.__getitem__, origin_codes))
        frame.ref_codes = ref_codes
        frame.origin_codes = origin_codes
        frame.ref_table = ref_table
        frame.origin_table = origin_table
        # Sparse columns, re-keyed to frame positions.  Guarded on the
        # arena dict being non-empty so untagged/untraced arenas pay
        # nothing.
        frame.tags = cls._gather_sparse(arena.tags, rows)
        frame.trace_ids = cls._gather_sparse(arena.trace_ids, rows)
        frame.span_ids = cls._gather_sparse(arena.span_ids, rows)
        return frame

    @staticmethod
    def _gather_sparse(column: dict, rows) -> dict:
        if not column:
            return {}
        return {
            index: column[row]
            for index, row in enumerate(rows)
            if row in column
        }

    # ------------------------------------------------------------- #
    # Decode-side reads
    # ------------------------------------------------------------- #

    def validate(self) -> None:
        """Raise :class:`~repro.errors.MalformedFrame` unless every
        dense column has one entry per event and every code indexes its
        table.

        Decoding extends the arena column by column, so a ragged or
        mis-coded frame would desynchronise the columns halfway through
        (a negative code even indexes silently) — a wrong fold later.
        One pass of C-level ``len``/``min``/``max`` per frame.
        """
        count = len(self.lsns)
        if not (
            len(self.timestamps) == len(self.kinds) == len(self.ref_codes)
            == len(self.origin_codes) == len(self.origin_seqs)
            == len(self.schema_versions) == len(self.payloads)
            == len(self.tx_ids) == count
        ):
            raise MalformedFrame(f"ragged columns in a {count}-event frame")
        if not count:
            return
        for name, codes, size in (
            ("kinds", self.kinds, len(CODE_KINDS)),
            ("ref_codes", self.ref_codes, len(self.ref_table)),
            ("origin_codes", self.origin_codes, len(self.origin_table)),
        ):
            if min(codes) < 0 or max(codes) >= size:
                raise MalformedFrame(
                    f"{name} outside [0, {size}): "
                    f"min {min(codes)}, max {max(codes)}"
                )

    def runs(self) -> list[tuple[int, int]]:
        """``(start, stop)`` position spans of the frame's maximal
        *runs* — same origin, each sequence one past the previous — in
        frame order.  An in-order single-origin frame is recognised as
        one run by C-level passes over its code and sequence columns, at
        a cost per frame, not per position; only other frames walk their
        positions."""
        codes, seqs = self.origin_codes, self.origin_seqs
        count = len(seqs)
        if not count:
            return []
        if codes.count(codes[0]) == count and ascends_by_one(seqs):
            return [(0, count)]
        cuts = [
            position
            for position in range(1, count)
            if codes[position] != codes[position - 1]
            or seqs[position] != seqs[position - 1] + 1
        ]
        return list(zip([0, *cuts], [*cuts, count]))

    def origin_runs(self) -> list[tuple[str, int, int]]:
        """``(origin, first_seq, last_seq)`` of each maximal same-origin
        run, in frame order (what a shipper's send cursor advances by)."""
        table, codes, seqs = self.origin_table, self.origin_codes, self.origin_seqs
        if len(table) == 1:
            return [(table[0], seqs[0], seqs[-1])]
        cuts = [i for i in range(1, len(codes)) if codes[i] != codes[i - 1]]
        return [
            (table[codes[lo]], seqs[lo], seqs[hi - 1])
            for lo, hi in zip([0, *cuts], [*cuts, len(codes)])
        ]

    def event_at(self, index: int) -> LogEvent:
        """Materialize one event (the frame ingest builds one only for
        a sequence gap, into the reorder buffer)."""
        entity_type, entity_key = self.ref_table[self.ref_codes[index]]
        return LogEvent.build(
            self.lsns[index],
            self.timestamps[index],
            entity_type,
            entity_key,
            CODE_KINDS[self.kinds[index]],
            self.payloads[index],
            self.origin_table[self.origin_codes[index]],
            self.origin_seqs[index],
            self.tx_ids[index],
            self.schema_versions[index],
            self.tags.get(index, _EMPTY_TAGS),
            self.trace_ids.get(index, ""),
            self.span_ids.get(index, ""),
        )

    def events(self) -> list[LogEvent]:
        """Materialize every event in the frame."""
        return [self.event_at(index) for index in range(len(self.lsns))]
