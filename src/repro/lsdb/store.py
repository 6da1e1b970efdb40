"""The LSDB facade: a main-memory, insert-only, log-structured store.

This is the storage engine every replica in the library runs on.  It
ties together the pieces of paper section 3.1:

* every write is an event appended to an :class:`AppendOnlyLog`;
* the application-visible "current state" is a rollup aggregation of the
  log (kept incrementally: each row is folded once, by the first read of
  its entity or whole-map reader or ship round that needs it;
  recomputable from scratch or from the rollup checkpoint for
  time-travel reads);
* secondary indexes are maintained asynchronously;
* compaction summarises old events into an archive;
* remote events are applied idempotently (per-origin sequence numbers)
  with out-of-order buffering, which is what lets at-least-once
  messaging and anti-entropy converge replicas.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import compress, islice
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import ReadSurface, Served
from repro.errors import EntityNotFound, ReproError
from repro.lsdb.checkpoint import (
    Checkpoint,
    CheckpointManager,
    CheckpointPolicy,
    RecoveryReport,
)
from repro.lsdb.columnar import _EMPTY_TAGS, ColumnFrame, EventColumns, EventSlice
from repro.lsdb.compaction import Archive, CompactionReport, Compactor
from repro.lsdb.events import EventKind, LogEvent
from repro.lsdb.index import SecondaryIndex
from repro.lsdb.log import AppendOnlyLog
from repro.lsdb.rollup import EntityState, Reducer, Rollup, StateMap
from repro.merge.clock import VersionVector
from repro.merge.deltas import Delta


class LSDBStore(ReadSurface):
    """A log-structured, main-memory entity store.

    Args:
        name: Diagnostic name (also the log name).
        origin: Replica id stamped on locally originated events.
        clock: Zero-argument callable returning the current (virtual)
            time; defaults to a constant 0.0 for clock-free unit tests.
        tracer: Optional :class:`repro.obs.Tracer`.  When set, local
            appends open ``store.append`` spans (stamped onto the event,
            so the span travels with it through replication) and remote
            applies open ``store.apply`` spans chained to the shipping
            hop — the store's half of the causal write journey.
        metrics: Optional :class:`repro.obs.MetricsRegistry` for append,
            duplicate-rejection and fold counters plus the
            reorder-buffer depth gauge (all labelled by ``origin``).

    Example:
        >>> store = LSDBStore(origin="r1")
        >>> _ = store.insert("account", "a1", {"owner": "ada", "balance": 0})
        >>> _ = store.apply_delta("account", "a1", Delta.add("balance", 50))
        >>> store.get("account", "a1").fields["balance"]
        50
    """

    #: Always ``None``: there is no write coalescer to report on (the
    #: fold needs no batching; see :meth:`get` and :meth:`fold_pending`).
    coalescer = None

    # ``__init__`` sets 28 instance attributes; CPython 3.11's limit for
    # a key-shared instance dict is 29, and past it every ``self.x`` on
    # the read and append paths is a slower lookup.  Cold helpers (the
    # compactor, the reorder gauge) are therefore built or looked up
    # where they are used.

    def __init__(
        self,
        name: str = "store",
        origin: str = "local",
        clock: Optional[Callable[[], float]] = None,
        tracer=None,
        metrics=None,
    ):
        self.name = name
        self.origin = origin
        self._clock = clock or (lambda: 0.0)
        self.log = AppendOnlyLog(name)
        #: The log's arena (immortal), for reads that index one column.
        self._arena = self.log.arena
        self.rollup = Rollup()
        self._states: StateMap = {}
        self.log.subscribe_columnar(self._on_append_row, self._on_append_batch)
        self.archive = Archive()
        self.version_vector = VersionVector()
        self._origin_seq = 0
        #: origin -> arena rows in origin-sequence order, an
        #: ``array('q')`` (8 bytes an entry).  Rows, not events: the
        #: arena is immortal, so this feed keeps serving raw originals
        #: after compaction rewrites the live log (anti-entropy repairs
        #: ship pre-compaction events verbatim).  A row's sequence is
        #: read from the arena's column, never copied.
        self._by_origin: dict[str, array] = {}
        #: Origins whose feed is not the one run of sequences
        #: ``first..first+n-1`` every feed the replication protocol
        #: builds is (it took an event injected out of sequence, a
        #: repeat or a gap): a position in it is found by a bisect keyed
        #: on the arena's sequence column, and in any other feed by
        #: arithmetic.
        self._keyed_feeds: set[str] = set()
        #: entity type -> refs in first-event order (entities are never
        #: physically removed, so this only grows).
        self._type_refs: dict[str, list[tuple[str, str]]] = {}
        self._reorder_buffer: dict[str, dict[int, LogEvent]] = {}
        self._indexes: dict[tuple[str, str], SecondaryIndex] = {}
        self.duplicates_rejected = 0
        self.tracer = tracer
        self.metrics = metrics
        #: event identity -> span id of the local append/apply that
        #: stored it; index refreshes chain their spans through this.
        self._span_by_identity: dict[tuple[str, int], str] = {}
        if metrics is not None:
            counter = metrics.counter
            self._m_appends = counter("store.appends", origin=origin)
            self._m_duplicates = counter(
                "store.duplicates_rejected", origin=origin
            )
            self._m_folds = counter("store.folds", origin=origin)
            # Registered now, looked up when the buffer changes (rare).
            metrics.gauge("store.reorder_buffer_depth", origin=origin)
        else:
            self._m_appends = self._m_duplicates = self._m_folds = None
        #: Optional hook returning the current schema version for an
        #: entity type; locally written events are stamped with it so
        #: lazy upcasting (repro.core.migration) knows what each event
        #: already conforms to.  ``None`` stamps version 1.
        self.schema_version_source: Optional[Callable[[str], int]] = None
        #: Checkpoint manager (None until :meth:`enable_checkpoints`);
        #: when armed, cache rebuilds become checkpoint + suffix.
        self.checkpoints: Optional[CheckpointManager] = None
        #: The first LSN no whole-suffix fold has reached (the mark).  A
        #: row appended on its own is not folded on the spot, so the rows
        #: owed to the state map are always a suffix of the arena: its
        #: last ``log._next_lsn - _fold_from`` rows (every append since
        #: the last compaction took one row and one LSN), less the rows a
        #: read already folded.  Kept in LSN space so the log's own
        #: counter says whether anything is owed, with no call.
        self._fold_from = 1
        #: ref id -> the last row a read folded for that entity past the
        #: mark (:meth:`get`); emptied whenever the mark moves.
        self._caught_up: dict[int, int] = {}
        #: How many entities a read put in the state map ahead of their
        #: turn since the mark last moved (they sit at its end).
        self._early = 0

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #

    def register_reducer(self, entity_type: str, reducer: Reducer) -> None:
        """Install a domain-specific reducer for ``entity_type``.

        Must be called before events of that type are appended; the
        incremental cache folds each event exactly once.  A new reducer
        changes what the log means, so it goes through
        :meth:`reinterpret`.
        """
        # Rows already appended were written under the old meaning:
        # fold them before it changes, as an eager store would have.
        self.fold_pending()
        self.rollup.register(entity_type, reducer)
        self.reinterpret()

    def reinterpret(self) -> None:
        """The log now means something else (a new reducer, a schema
        migration): drop every fold frozen under the old meaning.

        The checkpoint is discarded — restoring it would bring back the
        old reading of history — and every secondary index is reset, so
        its next refresh re-folds from LSN 0 (its lag shows the work
        still owed).  The incremental state map itself re-folds on the
        caller's :meth:`rebuild_cache`.
        """
        if self.checkpoints is not None:
            self.checkpoints.invalidate()
        for index in self._indexes.values():
            index.reset()

    def enable_checkpoints(
        self, policy: Optional[CheckpointPolicy] = None
    ) -> CheckpointManager:
        """Arm rollup checkpointing (see :mod:`repro.lsdb.checkpoint`).

        Once armed, :meth:`rebuild_cache`, :meth:`recover` and
        :meth:`state_as_of` start from the latest checkpoint plus the
        log after it — O(delta since the checkpoint) instead of O(log).
        """
        if self.checkpoints is None:
            self.checkpoints = CheckpointManager(self, policy)
        elif policy is not None:
            self.checkpoints.policy = policy
        return self.checkpoints

    def fold_pending(self) -> int:
        """Fold every appended row no fold has reached yet, in row
        order, skipping the rows a read already folded for its own
        entity — what each whole-map reader and each ship round calls
        first.  Returns how many rows it folded."""
        return self._fold_suffix(len(self._arena.lsns))

    @property
    def unfolded(self) -> int:
        """How many appended rows the state map does not hold yet."""
        mark = self._mark_row()
        return len(self._arena.lsns) - mark - len(self._read_folded_rows(mark))

    def _mark_row(self) -> int:
        """The arena row of the first row past the mark."""
        return len(self._arena.lsns) - (self.log._next_lsn - self._fold_from)

    def _fold_suffix(self, end: int) -> int:
        """Fold the unfolded rows below arena row ``end`` and move the
        mark to ``end``."""
        mark = self._mark_row()
        if mark >= end:
            return 0
        rows = range(mark, end)
        if self._caught_up:
            keep = bytearray(b"\x01") * (end - mark)
            for row in self._read_folded_rows(mark):
                keep[row - mark] = 0
            self._caught_up = {}
            rows = list(compress(rows, keep))
        self._fold_from += end - mark
        size = len(self._states)
        if rows:
            self._fold_rows(rows)
        if self._early:
            self._first_event_order(len(self._states) - size, self._early)
            self._early = 0
        return len(rows)

    def _first_event_order(self, added: int, early: int) -> None:
        """Restore first-event order after a suffix fold, so the state
        map's order is the one an eager fold gives.  The map ends with
        the ``early`` entities reads put there ahead of their turn (in
        read order), then the ``added`` ones this fold put there (in
        first-row order).  Only the early ones, and the added ones whose
        first row comes after the earliest of theirs, are out of place:
        those alone are re-inserted, in first-row order."""
        states = self._states
        by_ref, lookup = self.log._by_ref, self._arena._ref_lookup
        back = reversed(states)
        newest_first = list(islice(back, added))
        moved = [
            (by_ref[lookup[kind][key]][0], (kind, key))
            for kind, key in islice(back, early)
        ]
        earliest = min(moved)[0]
        for kind, key in newest_first:
            first = by_ref[lookup[kind][key]][0]
            if first < earliest:
                break
            moved.append((first, (kind, key)))
        for _first, ref in sorted(moved):
            states[ref] = states.pop(ref)

    def _read_folded_rows(self, mark: int) -> list[int]:
        """The rows past the mark (arena row ``mark``) that reads
        already folded: for each entity a read caught up, its rows from
        the mark to where that read stopped."""
        by_ref = self.log._by_ref
        folded: list[int] = []
        for rid, last in self._caught_up.items():
            rows = by_ref[rid]
            first = len(rows)
            while first and rows[first - 1] >= mark:
                first -= 1
            folded.extend(row for row in rows[first:] if row <= last)
        return folded

    def _fold_rows(self, rows) -> None:
        """Fold arena rows into the state map — the suffix, one
        entity's catch-up, or a frame."""
        self.rollup.fold_slice_into(self._states, EventSlice(self._arena, rows))
        if self._m_folds is not None:
            self._m_folds.inc(len(rows))

    def _catch_up(self, rid: int, rows: list[int]) -> None:
        """Fold the rows of one entity (ref id ``rid``, live rows
        ``rows``) that are past the mark and past what a read of it
        already folded.  Those rows are a tail of ``rows``, in row order:
        every row ahead of it is behind the mark (a compaction folds
        everything first, so its summary rows are too)."""
        caught = self._caught_up.get(rid, -1)
        fold_from, lsns = self._fold_from, self._arena.lsns
        first = len(rows) - 1
        while first and rows[first - 1] > caught and lsns[rows[first - 1]] >= fold_from:
            first -= 1
        self._caught_up[rid] = rows[-1]
        size = len(self._states)
        self._fold_rows(rows[first:])
        self._early += len(self._states) - size

    def register_index(self, entity_type: str, field_name: str) -> SecondaryIndex:
        """Create (or return) an asynchronously maintained equality index."""
        key = (entity_type, field_name)
        if key not in self._indexes:
            self._indexes[key] = SecondaryIndex(
                self.log,
                self.rollup,
                entity_type,
                field_name,
                tracer=self.tracer,
                metrics=self.metrics,
                node=self.origin,
                span_of=self._span_by_identity.get,
            )
        return self._indexes[key]

    # ------------------------------------------------------------------ #
    # Read-only views (checkpoint capture & diagnostics)
    # ------------------------------------------------------------------ #

    def now(self) -> float:
        """The store's current (virtual) clock reading."""
        return self._clock()

    @property
    def origin_seq(self) -> int:
        """The last locally assigned per-origin sequence number."""
        return self._origin_seq

    def states_view(self) -> StateMap:
        """The live incremental state map, every row folded — do not
        mutate."""
        self.fold_pending()
        return self._states

    def type_refs_view(self) -> dict[str, list[tuple[str, str]]]:
        """The live type -> refs (first-event order) map, every row
        folded — do not mutate."""
        self.fold_pending()
        return self._type_refs

    def indexes_view(self) -> dict[tuple[str, str], SecondaryIndex]:
        """The registered secondary indexes — do not mutate."""
        return self._indexes

    # ------------------------------------------------------------------ #
    # Local writes (each becomes one log event)
    # ------------------------------------------------------------------ #

    def insert(
        self,
        entity_type: str,
        entity_key: str,
        fields: dict[str, Any],
        tx_id: str = "",
        tags: Iterable[str] = (),
    ) -> LogEvent:
        """Record a new entity version (insert-only storage, 2.7).

        API edge: returns the built :class:`LogEvent`; scheme writes and
        commits call :meth:`append_local` and build none."""
        row = self.append_local(
            entity_type, entity_key, EventKind.INSERT, dict(fields), tx_id, tags
        )
        return self.log.arena.event_at(row)

    def apply_delta(
        self,
        entity_type: str,
        entity_key: str,
        delta: Delta,
        tx_id: str = "",
        tags: Iterable[str] = (),
    ) -> LogEvent:
        """Record a commutative adjustment (operations, not consequences).

        API edge: returns the built :class:`LogEvent`; scheme writes and
        commits call :meth:`append_local` and build none."""
        row = self.append_local(
            entity_type, entity_key, EventKind.DELTA, delta.to_payload(), tx_id, tags
        )
        return self.log.arena.event_at(row)

    def set_fields(
        self,
        entity_type: str,
        entity_key: str,
        fields: dict[str, Any],
        tx_id: str = "",
        tags: Iterable[str] = (),
    ) -> LogEvent:
        """Record a field overwrite (resolved last-update-wins across
        replicas; prefer deltas where the domain allows).

        API edge: returns the built :class:`LogEvent`; scheme writes and
        commits call :meth:`append_local` and build none."""
        row = self.append_local(
            entity_type, entity_key, EventKind.SET_FIELDS, dict(fields), tx_id, tags
        )
        return self.log.arena.event_at(row)

    def tombstone(
        self,
        entity_type: str,
        entity_key: str,
        tx_id: str = "",
        tags: Iterable[str] = (),
    ) -> LogEvent:
        """Mark an entity deleted (the data stays readable, 2.7).

        API edge: returns the built :class:`LogEvent`; scheme writes and
        commits call :meth:`append_local` and build none."""
        row = self.append_local(
            entity_type, entity_key, EventKind.TOMBSTONE, {}, tx_id, tags
        )
        return self.log.arena.event_at(row)

    def mark_obsolete(
        self,
        entity_type: str,
        entity_key: str,
        tx_id: str = "",
        tags: Iterable[str] = (),
    ) -> LogEvent:
        """Mark a tentative entity obsolete — visible and durable, but no
        longer current (section 3.2).

        API edge: returns the built :class:`LogEvent`; scheme writes and
        commits call :meth:`append_local` and build none."""
        row = self.append_local(
            entity_type, entity_key, EventKind.OBSOLETE, {}, tx_id, tags
        )
        return self.log.arena.event_at(row)

    def append_local(
        self,
        entity_type: str,
        entity_key: str,
        kind: EventKind,
        payload: dict[str, Any],
        tx_id: str = "",
        tags: Iterable[str] = (),
    ) -> int:
        """The one local ingest: write one event straight into the
        arena columns and return its row.  ``payload`` is stored by
        reference and nothing materializes (``log.arena.event_at(row)``
        builds the :class:`LogEvent` for callers that want one)."""
        self._origin_seq += 1
        schema_version = (
            self.schema_version_source(entity_type)
            if self.schema_version_source is not None
            else 1
        )
        tracer = self.tracer
        trace_id = span_id = ""
        if tracer is not None:
            span = tracer.start_span(
                "store.append",
                node=self.origin,
                entity=f"{entity_type}/{entity_key}",
                kind=kind.value,
            )
            trace_id, span_id = span.trace_id, span.span_id
            self._span_by_identity[(self.origin, self._origin_seq)] = span_id
        row = self.log.append_row(
            self._clock(),
            entity_type,
            entity_key,
            kind,
            payload,
            self.origin,
            self._origin_seq,
            tx_id,
            schema_version,
            frozenset(tags) if tags else _EMPTY_TAGS,
            trace_id,
            span_id,
        )
        if tracer is not None:
            tracer.end_span(span, lsn=self.log.arena.lsns[row])
        return row

    # ------------------------------------------------------------------ #
    # Remote application (replication / at-least-once delivery)
    # ------------------------------------------------------------------ #

    def apply_remote(self, event: LogEvent) -> bool:
        """Apply one event originated elsewhere, idempotently and in
        per-origin order — the single-event API edge (synchronous
        replication, tests) and the reference semantics
        :meth:`apply_remote_frame` reproduces in column space.

        * A duplicate (origin sequence already applied) is rejected.
        * An out-of-order event (a gap in the origin's sequence) is
          buffered and drained once the gap fills, so at-least-once,
          unordered delivery still yields exactly-once, in-order apply.

        Returns:
            ``True`` if the event was appended now, ``False`` if it was
            a duplicate or was buffered for later.
        """
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.start_span(
                "store.apply",
                parent=event.span_id or None,
                node=self.origin,
                origin=event.origin,
                seq=event.origin_seq,
            )
        applied_up_to = self.version_vector.get(event.origin)
        if event.origin_seq <= applied_up_to:
            self.duplicates_rejected += 1
            if self._m_duplicates is not None:
                self._m_duplicates.inc()
            if span is not None:
                tracer.end_span(span, status="duplicate")
            return False
        if event.origin_seq > applied_up_to + 1:
            self._reorder_buffer.setdefault(event.origin, {})[
                event.origin_seq
            ] = event
            self._update_reorder_gauge()
            if span is not None:
                tracer.end_span(span, status="buffered")
            return False
        # ``append`` re-stamps the LSN itself, so the incoming event
        # (carrying its origin store's LSN) goes straight in — no
        # intermediate zeroed copy.
        if span is None:
            self.log.append(event)
        else:
            self._span_by_identity[event.identity] = span.span_id
            with tracer.resume(span.span_id):
                self.log.append(event)
            tracer.end_span(span, status="applied")
        self._drain_buffer(event.origin)
        return True

    def apply_remote_frame(
        self,
        frame: ColumnFrame,
        parent_spans: Optional[Mapping[int, str]] = None,
    ) -> int:
        """Apply a :class:`ColumnFrame` of remote events — the one bulk
        ingest every shipped event enters a store through.

        Semantically ``sum(apply_remote(e) for e in frame.events())``,
        but worked in column space, run by run (:meth:`ColumnFrame.runs`:
        same origin, consecutive sequences).  A run's positions are
        classified against the version vector by arithmetic on its
        first sequence:

        * a **duplicate** span (sequences already applied — at-least-once
          shipping re-sends whole suffixes) is counted and skipped
          without materializing anything;
        * an **in-order** span bulk-extends the arena via
          :meth:`~repro.lsdb.log.AppendOnlyLog.extend_frame`, cut short
          where the reorder buffer holds a sequence so the buffered copy
          drains first, exactly as per-event apply would;
        * the positions past a **gap** are the one place a
          :class:`LogEvent` is built, one per position, into the reorder
          buffer.

        An in-order single-origin frame is therefore one run, one span
        and one ``extend_frame``: its cost is per frame, not per row.
        The frame is only read, so one frame object may be applied at
        any number of stores.

        Args:
            frame: The received frame; validated whole before any row
                is applied.
            parent_spans: Frame position -> span id the position's
                ``store.apply`` span should chain to (the shipper's
                ``replicate.ship`` spans); positions without one fall
                back to the event's own origin-append span.  Only read
                when tracing.

        Returns:
            How many events were appended now (duplicates, buffered and
            drained-from-buffer events are not counted, matching
            :meth:`apply_remote`).

        Raises:
            MalformedFrame: Ragged columns or out-of-range codes; the
                store is untouched.
        """
        frame.validate()
        traced = self.tracer is not None
        applied = 0
        counts = self.version_vector.counts
        table, codes, seqs = frame.origin_table, frame.origin_codes, frame.origin_seqs
        for lo, hi in frame.runs():
            origin = table[codes[lo]]
            # The run's sequences are seqs[lo] + (position - lo).
            base = seqs[lo] - lo
            position = lo
            while position < hi:
                start = position
                have = counts.get(origin, 0)
                seq = base + start
                if seq <= have:
                    status = "duplicate"
                    position = min(hi, start + have - seq + 1)
                    self.duplicates_rejected += position - start
                    if self._m_duplicates is not None:
                        self._m_duplicates.inc(position - start)
                elif seq == have + 1:
                    status = "applied"
                    position = hi
                    buffered = self._reorder_buffer.get(origin)
                    if buffered:
                        last = base + hi - 1
                        held = [s for s in buffered if seq < s <= last]
                        if held:
                            position = min(held) - base
                else:
                    # Past a gap, and nothing in this run fills it.
                    status = "buffered"
                    position = hi
                    pending = self._reorder_buffer.setdefault(origin, {})
                    for gap in range(start, hi):
                        pending[base + gap] = frame.event_at(gap)
                    self._update_reorder_gauge()
                if traced:
                    self._trace_frame_applies(
                        frame, start, position, origin, parent_spans, status
                    )
                if status == "applied":
                    self.log.extend_frame(frame, start, position)
                    applied += position - start
                    if buffered:
                        self._drain_buffer(origin)
        return applied

    def _trace_frame_applies(
        self,
        frame: ColumnFrame,
        start: int,
        stop: int,
        origin: str,
        parent_spans: Optional[Mapping[int, str]],
        status: str,
    ) -> None:
        """Tracing's whole share of the frame ingest: one ``store.apply``
        span per position of a classified run, opened and closed here —
        the data path above is the same with and without a tracer."""
        tracer = self.tracer
        seqs = frame.origin_seqs
        append_spans = frame.span_ids
        for position in range(start, stop):
            span = tracer.start_span(
                "store.apply",
                parent=(parent_spans and parent_spans.get(position))
                or append_spans.get(position)
                or None,
                node=self.origin,
                origin=origin,
                seq=seqs[position],
            )
            if status == "applied":
                self._span_by_identity[(origin, seqs[position])] = span.span_id
            tracer.end_span(span, status=status)

    def _drain_buffer(self, origin: str) -> None:
        buffered = self._reorder_buffer.get(origin)
        if not buffered:
            return
        tracer = self.tracer
        while True:
            next_seq = self.version_vector.get(origin) + 1
            event = buffered.pop(next_seq, None)
            if event is None:
                break
            if tracer is None:
                self.log.append(event)
            else:
                span = tracer.start_span(
                    "store.apply",
                    parent=event.span_id or None,
                    node=self.origin,
                    origin=event.origin,
                    seq=event.origin_seq,
                )
                self._span_by_identity[event.identity] = span.span_id
                with tracer.resume(span.span_id):
                    self.log.append(event)
                tracer.end_span(span, status="applied_from_buffer")
        if not buffered:
            self._reorder_buffer.pop(origin, None)
        self._update_reorder_gauge()

    def _update_reorder_gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("store.reorder_buffer_depth", origin=self.origin).set(
                sum(len(pending) for pending in self._reorder_buffer.values())
            )

    # ------------------------------------------------------------------ #
    # Append bookkeeping (runs for local and remote appends alike)
    # ------------------------------------------------------------------ #

    def _on_append_row(self, cols: EventColumns, row: int) -> None:
        """Bookkeeping for one appended row: record it in its origin's
        feed and the version vector (replication never waits on a fold),
        and, for its entity's first live row, the entity's ref in
        first-event order.  The row itself is not folded: it joins the
        unfolded suffix, which a read of its entity or a whole-map fold
        folds when it needs it.  The feed record is
        :meth:`_record_origin_run` for a run of one, inlined."""
        if self._m_appends is not None:
            self._m_appends.inc()
        rid = cols.ref_ids[row]
        if len(self.log._by_ref[rid]) == 1:
            # Recorded here, not at fold time, so a read that folds a new
            # entity early keeps ``entities_of_type`` in append order.  A
            # ref already in the map came with an installed checkpoint.
            ref = cols.ref_tuples[rid]
            if ref not in self._states:
                self._type_refs.setdefault(ref[0], []).append(ref)
        origin = cols.origins.values[cols.origin_ids[row]]
        seq = cols.origin_seqs[row]
        if seq:
            counts = self.version_vector.counts
            if seq > counts.get(origin, 0):
                counts[origin] = seq
        rows = self._by_origin.get(origin)
        if rows is None:
            self._by_origin[origin] = array("q", (row,))
            return
        last = cols.origin_seqs[rows[-1]]
        if seq == last + 1:
            rows.append(row)
        elif seq >= last:
            rows.append(row)
            self._keyed_feeds.add(origin)
        else:
            self._insert_into_feed(cols, origin, row, row)

    def _on_append_batch(self, view: EventSlice) -> None:
        """Bookkeeping for a frame apply (the log hands over the
        contiguous rows it just appended): the frame folds at once, then
        one feed record per origin run — one in all for the
        single-origin runs the frame ingest appends."""
        rows = view.rows
        first, end = rows[0], rows[-1]
        if self._m_appends is not None:
            self._m_appends.inc(len(rows))
        cols = view.arena
        # The unfolded suffix precedes the frame in row order: fold it
        # first so the state map always reflects append order.
        if self._fold_from < cols.lsns[first]:
            self._fold_suffix(first)
        self.rollup.fold_slice_into(self._states, view, self._type_refs)
        if self._m_folds is not None:
            self._m_folds.inc(len(rows))
        self._fold_from = self.log._next_lsn
        origin_ids = cols.origin_ids
        if origin_ids[first:end + 1].count(origin_ids[first]) > end - first:
            self._record_origin_run(cols, first, end)
            return
        while first <= end:
            last = first
            while last < end and origin_ids[last + 1] == origin_ids[first]:
                last += 1
            self._record_origin_run(cols, first, last)
            first = last + 1

    def _record_origin_run(self, cols: EventColumns, first: int, last: int) -> None:
        """Record arena rows ``first..last`` (inclusive) — one origin's
        run, in strictly ascending sequence order — in the version
        vector and in that origin's feed."""
        origin = cols.origins.values[cols.origin_ids[first]]
        seqs = cols.origin_seqs
        # Recording the run's last sequence is the same set of vector
        # updates as recording each (record keeps the max).
        last_seq = seqs[last]
        if last_seq:
            self.version_vector.record(origin, last_seq)
        # Strictly ascending, so its ends say whether it skips any.
        gapped = last_seq - seqs[first] != last - first
        rows = self._by_origin.get(origin)
        if rows is None:
            self._by_origin[origin] = array("q", range(first, last + 1))
        elif seqs[first] >= seqs[rows[-1]]:
            gapped = gapped or seqs[first] != seqs[rows[-1]] + 1
            rows.extend(range(first, last + 1))
        else:
            self._insert_into_feed(cols, origin, first, last)
        if gapped:
            self._keyed_feeds.add(origin)

    def _insert_into_feed(
        self, cols: EventColumns, origin: str, first: int, last: int
    ) -> None:
        """Insert-sort rows ``first..last`` into ``origin``'s feed — an
        out-of-sequence arrival, only possible for events injected
        outside the replication protocol — so a keyed bisect stays
        correct."""
        self._keyed_feeds.add(origin)
        rows = self._by_origin[origin]
        seq_of = cols.origin_seqs.__getitem__
        for row in range(first, last + 1):
            rows.insert(bisect_right(rows, seq_of(row), key=seq_of), row)

    def _feed_start(self, origin: str, rows: array, after_seq: int) -> int:
        """Position in ``origin``'s feed ``rows`` of its first row with
        sequence > ``after_seq`` (``len(rows)`` or more if none): by
        arithmetic on a feed of sequences ``first..first+n-1``, by a
        bisect keyed on the arena's sequence column otherwise.
        :meth:`origin_timestamp_after` inlines it."""
        seqs = self._arena.origin_seqs
        if origin in self._keyed_feeds:
            return bisect_right(rows, after_seq, key=seqs.__getitem__)
        start = after_seq - seqs[rows[0]] + 1
        return start if start > 0 else 0

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def get(self, entity_type: str, entity_key: str) -> Optional[EntityState]:
        """The current rolled-up state of one entity (``None`` if the
        entity has no events at all; a tombstoned entity is returned
        with ``deleted=True``).

        Folds the entity's own unfolded rows first, and only those: the
        check is dict and list probes (``lookup_ref`` inlined), so a read
        whose entity has nothing pending makes no further call."""
        fold_from = self._fold_from
        if fold_from < self.log._next_lsn:
            by_key = self._arena._ref_lookup.get(entity_type)
            rid = None if by_key is None else by_key.get(entity_key)
            if rid is not None:
                rows = self.log._by_ref.get(rid)
                if rows:
                    last = rows[-1]
                    if (
                        self._arena.lsns[last] >= fold_from
                        and last > self._caught_up.get(rid, -1)
                    ):
                        self._catch_up(rid, rows)
        return self._states.get((entity_type, entity_key))

    def serve(
        self,
        entity_type: str,
        entity_key: str,
        level: ConsistencyLevel,
        *,
        max_staleness: Optional[float] = None,
        site: Optional[str] = None,
    ) -> Served:
        """The read protocol's primitive (see :mod:`repro.core.readpath`).

        A single store has one copy of the data, so every consistency
        level reads the same rollup, :meth:`get`, and is delivered as
        asked at zero staleness (this *is* the copy of record in an
        unreplicated deployment).
        """
        return self.get(entity_type, entity_key), level, 0.0, self.name, ""

    def require(self, entity_type: str, entity_key: str) -> EntityState:
        """Like :meth:`get` but raises for missing or deleted entities."""
        state = self.get(entity_type, entity_key)
        if state is None or state.deleted:
            raise EntityNotFound(f"{entity_type}/{entity_key}")
        return state

    def current_state(self) -> StateMap:
        """A copy of the whole current-state map."""
        self.fold_pending()
        return {ref: state.copy() for ref, state in self._states.items()}

    def entities_of_type(self, entity_type: str, live_only: bool = True) -> list[EntityState]:
        """All entities of a type (optionally excluding deleted/obsolete).
        Served from the per-type ref index: O(entities of the type), not
        O(all entities)."""
        self.fold_pending()
        states = self._states
        return [
            state
            for ref in self._type_refs.get(entity_type, ())
            if (state := states[ref]).live or not live_only
        ]

    def state_as_of(self, lsn: int) -> StateMap:
        """Time-travel read: the rolled-up state at a historic LSN.

        Starts from the latest checkpoint at or below ``lsn`` and folds
        the log between the two over it; with no usable checkpoint (none
        armed or taken, or ``lsn`` below the one kept) it folds
        ``log.up_to(lsn)`` from scratch.  The result shares nothing with
        the checkpoint, so callers may mutate it.
        """
        checkpoint = (
            self.checkpoints.latest() if self.checkpoints is not None else None
        )
        if checkpoint is None or checkpoint.lsn > lsn:
            return self.rollup.fold(self.log.up_to(lsn))
        return self.rollup.fold(
            self.log.between(checkpoint.lsn, lsn),
            initial=checkpoint.states,
            copy_untouched=True,
        )

    def rebuild_cache(self, *, full: bool = False) -> int:
        """Rebuild the incremental state cache.

        With checkpoints armed (:meth:`enable_checkpoints`) and a valid
        checkpoint available, the rebuild restores the frozen state map
        and folds only ``log.since(checkpoint.lsn)`` — O(delta), not
        O(log).  Without one (or with ``full=True``) the whole live log
        is re-folded from scratch.

        The full path is what a changed *interpretation* needs — e.g. a
        schema migration installed a new upcast chain
        (:class:`repro.core.migration.MigratingReducer`): events already
        folded under the old schema re-fold under the new one.
        :meth:`reinterpret` drops the checkpoint, so a plain
        ``rebuild_cache()`` after a new reducer or a migration
        automatically falls back to the full replay.

        Returns:
            The number of events (re-)folded.
        """
        checkpoint = None
        if not full and self.checkpoints is not None:
            checkpoint = self.checkpoints.latest()
        return self._restore_states(checkpoint)

    def _restore_states(self, checkpoint: Optional[Checkpoint]) -> int:
        """Install a checkpoint's state map (``None``: an empty one) and
        fold the live log after it over it.  Returns the number of
        events folded.
        """
        # Unfolded rows are in the log and the replay folds them, so
        # folding them first would be redundant work.
        self._fold_from = self.log._next_lsn
        self._caught_up = {}
        self._early = 0
        if checkpoint is None:
            self._states, self._type_refs, lsn = {}, {}, 0
        else:
            self._states = {
                ref: state.copy() for ref, state in checkpoint.states.items()
            }
            self._type_refs = {
                entity_type: list(refs)
                for entity_type, refs in checkpoint.type_refs.items()
            }
            lsn = checkpoint.lsn
        suffix = self.log.since(lsn)
        self.rollup.fold_slice_into(self._states, suffix, self._type_refs)
        return len(suffix)

    def recover(self) -> RecoveryReport:
        """Cold-start recovery of every derived structure.

        Models a restart where the log is durable but the caches are
        gone: the reorder buffer is cleared, the state map is rebuilt
        (checkpoint + suffix when available, full replay otherwise) and
        every secondary index is restored from its checkpoint snapshot
        then refreshed to the log head.  The recovered cache is
        byte-identical to one that was never torn down — the incremental
        cache *is* the fold of the log, and a checkpoint is a prefix of
        that fold.
        """
        self._reorder_buffer = {}
        self._update_reorder_gauge()
        checkpoint = (
            self.checkpoints.latest() if self.checkpoints is not None else None
        )
        replayed = self._restore_states(checkpoint)
        snapshots = checkpoint.index_snapshots if checkpoint is not None else {}
        indexes_restored = 0
        for key, index in self._indexes.items():
            snapshot = snapshots.get(key)
            if snapshot is not None:
                index.restore(snapshot)
                indexes_restored += 1
            else:
                index.reset()
            index.refresh()
        return RecoveryReport(
            used_checkpoint=checkpoint is not None,
            checkpoint_lsn=checkpoint.lsn if checkpoint is not None else 0,
            events_replayed=replayed,
            indexes_restored=indexes_restored,
        )

    def install_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Bootstrap an **empty** store from a peer's checkpoint.

        This is how a brand-new replica joins without replaying the
        donor's whole log: it receives the frozen state map plus the
        per-origin watermarks, so the version vector immediately rejects
        pre-checkpoint events and replication only has to ship the delta
        (anti-entropy probes fill the rest).  The local log stays empty
        — history from before the checkpoint lives at the donors, which
        is exactly the paper's summarization trade-off: this node serves
        current state and *new* history, not the archived past.
        """
        if len(self.log) or self._states:
            raise ReproError(
                f"store {self.name!r} is not empty; install_checkpoint "
                "is a bootstrap-only operation"
            )
        # The log is empty, so the restore folds nothing after the
        # installed map.
        self._restore_states(checkpoint)
        self.version_vector = VersionVector(dict(checkpoint.version_vector))
        # If this node's id appears in the donor's watermarks (a rejoin
        # under the same name), continue the sequence rather than reuse it.
        self._origin_seq = max(
            self._origin_seq, checkpoint.version_vector.get(self.origin, 0)
        )
        for key, snapshot in checkpoint.index_snapshots.items():
            index = self._indexes.get(key)
            if index is not None:
                index.restore(snapshot)
                # The donor's applied_lsn is meaningless in this store's
                # (empty) LSN space: the buckets are warm as of the
                # checkpoint, and every *local* append still needs to be
                # folded in, so refreshes must start from LSN 0.
                index.applied_lsn = 0

    def rollup_from_scratch(self) -> StateMap:
        """Fold the entire live log (the unaccelerated rollup the paper
        describes; used by E6 as the baseline read cost)."""
        return self.rollup.fold(self.log.events())

    def history(self, entity_type: str, entity_key: str) -> list[LogEvent]:
        """The full operation history of an entity: archived events (if
        compacted) followed by live log events (principle 2.7's audit
        trail, e.g. tracing negative inventory, 2.1)."""
        return self.archive.events_for(entity_type, entity_key) + self.log.for_entity(
            entity_type, entity_key
        )

    def query(self, entity_type: str, field_name: str, value: Any) -> set[str]:
        """Index lookup, *as of the index's last refresh* (stale by design)."""
        index = self._indexes.get((entity_type, field_name))
        if index is None:
            raise KeyError(f"no index on {entity_type}.{field_name}")
        return index.lookup(value)

    def refresh_indexes(self) -> None:
        """Bring every index up to the log head (the deferred action a
        background step performs, principle 2.3)."""
        for index in self._indexes.values():
            index.refresh()

    # ------------------------------------------------------------------ #
    # Replication feeds & maintenance
    # ------------------------------------------------------------------ #

    def events_since(self, lsn: int) -> EventSlice:
        """Local-log catch-up feed (eager propagation, warehouse
        extracts).  A columnar view — nothing materializes until the
        consumer touches events, and frame shipping encodes straight
        from the columns."""
        return self.log.since(lsn)

    def events_from_origin(self, origin: str, after_seq: int) -> EventSlice:
        """Events originated at ``origin`` with sequence > ``after_seq``
        (pushes and probe answers both ship from this feed).  One
        bisect over the per-origin sequence array; the result is a
        zero-copy range when the rows are arena-contiguous.
        Served from arena rows, so the feed still carries raw originals
        for sequences whose live-log events were compacted away."""
        arena = self._arena
        rows = self._by_origin.get(origin)
        if not rows:
            return EventSlice(arena, ())
        start = self._feed_start(origin, rows, after_seq)
        if start >= len(rows):
            return EventSlice(arena, ())
        first, last = rows[start], rows[-1]
        if origin not in self._keyed_feeds and last - first == len(rows) - 1 - start:
            # Arena-contiguous (a single writer's feed always is): a
            # range view, which frame encoding slices without a copy.
            return EventSlice(arena, range(first, last + 1))
        return EventSlice(arena, rows[start:])

    def origin_timestamp_after(self, origin: str, after_seq: int) -> Optional[float]:
        """Timestamp of the oldest event from ``origin`` with sequence >
        ``after_seq`` (``None`` if there is none): the first row of
        :meth:`events_from_origin`'s feed, read without building it —
        the staleness stamp of every follower read, so
        :meth:`_feed_start` is inlined and the common feed takes no
        bisect (one on an ``array`` costs about 250 ns, five times one
        on a list)."""
        # The vector holds at least the feed's last sequence (each row
        # recorded it; a checkpoint installs only on an empty store), so
        # an up-to-date follower costs one probe.
        if after_seq >= self.version_vector.counts.get(origin, 0):
            return None
        rows = self._by_origin.get(origin)
        if not rows:
            return None
        arena = self._arena
        if origin in self._keyed_feeds:
            start = bisect_right(rows, after_seq, key=arena.origin_seqs.__getitem__)
        else:
            start = after_seq - arena.origin_seqs[rows[0]] + 1
            if start < 0:
                start = 0
        if start < len(rows):
            return arena.timestamps[rows[start]]
        return None

    def count_from_origin(self, origin: str, after_seq: int) -> int:
        """How many events from ``origin`` have sequence > ``after_seq``,
        without materialising them (replication-lag probes)."""
        rows = self._by_origin.get(origin)
        if not rows:
            return 0
        return max(0, len(rows) - self._feed_start(origin, rows, after_seq))

    def compact(self, keep_recent: int = 0) -> CompactionReport:
        """Summarise all but the newest ``keep_recent`` events.

        With checkpoints armed, the pre-compaction checkpoint is
        discarded (the prefix it expected to replay over was just
        rewritten) and — under the default policy — a fresh one is taken
        immediately, so recovery stays O(delta) across compactions.
        """
        # Summarise folded truth.  The rewrite's summary rows stand for
        # rows already folded, and take no LSN, so they stay behind the
        # mark.
        self.fold_pending()
        compactor = Compactor(self.log, self.rollup, self.archive)
        report = compactor.compact_keep_recent(keep_recent)
        if self.checkpoints is not None:
            self.checkpoints.on_compaction()
        return report

    @property
    def live_events(self) -> int:
        """Number of events in the live (uncompacted) log."""
        return len(self.log)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LSDBStore({self.name!r}, origin={self.origin!r}, "
            f"entities={len(self._states)}, live_events={self.live_events})"
        )
