"""Rollup aggregation: the "current state" as a fold over the log.

Paper section 3.1: "What applications view as the current state of the
database would be a rollup aggregation of the contents of the LSDB, in
the same way that rollforward using a log is an aggregation function."

This module implements that aggregation.  A :class:`Reducer` folds one
event into one entity's state; :class:`Rollup` folds a whole event
sequence into a state map.  The default :class:`GenericReducer` is
*convergent*: deltas commute, and field overwrites carry
``(timestamp, origin)`` stamps resolved last-update-wins, so replicas
that apply the same event *set* in different orders reach the same state
(checked with hypothesis in ``tests/test_rollup_properties.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Protocol, Sequence

from repro.lsdb.columnar import KIND_CODES, EventColumns, EventSlice
from repro.lsdb.events import EventKind, LogEvent

_INSERT = KIND_CODES[EventKind.INSERT]
_DELTA = KIND_CODES[EventKind.DELTA]
_SET_FIELDS = KIND_CODES[EventKind.SET_FIELDS]
_TOMBSTONE = KIND_CODES[EventKind.TOMBSTONE]
_OBSOLETE = KIND_CODES[EventKind.OBSOLETE]
_SUMMARY = KIND_CODES[EventKind.SUMMARY]
_NO_STAMP = (float("-inf"), "")


@dataclass(slots=True)
class EntityState:
    """The rolled-up state of one entity.

    Slotted like :class:`~repro.lsdb.events.LogEvent`: one instance
    lives in the incremental cache per entity, and copies of all of
    them live in every snapshot and rollup checkpoint, so the instance
    dict was pure overhead.

    Attributes:
        entity_type: Catalog name of the type.
        entity_key: Business key.
        fields: Current field values.
        field_stamps: Per-field ``(timestamp, origin)`` of the winning
            ``SET_FIELDS`` write (absent for fields only ever touched by
            inserts/deltas).
        deleted: Whether a ``TOMBSTONE`` mark has been applied.  The
            fields remain readable — deletion is a mark, not an erasure
            (principle 2.7).
        obsolete: Whether the entity is a tentative change that was
            marked obsolete (section 3.2): still visible and durable.
        version_count: Number of ``INSERT`` events folded in (insert-only
            versioning depth).
        event_count: Total events folded into this state.
        last_lsn: LSN of the most recent folded event.
        last_timestamp: Virtual time of the most recent folded event.
    """

    entity_type: str
    entity_key: str
    fields: dict[str, Any] = field(default_factory=dict)
    field_stamps: dict[str, tuple[float, str]] = field(default_factory=dict)
    deleted: bool = False
    obsolete: bool = False
    version_count: int = 0
    event_count: int = 0
    last_lsn: int = 0
    last_timestamp: float = 0.0

    @property
    def live(self) -> bool:
        """Whether the entity is neither deleted nor obsolete."""
        return not (self.deleted or self.obsolete)

    def get(self, field_name: str, default: Any = None) -> Any:
        """Current value of one field."""
        return self.fields.get(field_name, default)

    def copy(self) -> "EntityState":
        """A deep-enough copy (field dicts copied, values shared)."""
        return EntityState(
            entity_type=self.entity_type,
            entity_key=self.entity_key,
            fields=dict(self.fields),
            field_stamps=dict(self.field_stamps),
            deleted=self.deleted,
            obsolete=self.obsolete,
            version_count=self.version_count,
            event_count=self.event_count,
            last_lsn=self.last_lsn,
            last_timestamp=self.last_timestamp,
        )


class Reducer(Protocol):
    """Folds one event into one entity's state.

    Custom reducers let an entity type define domain aggregation (e.g.
    an account whose ``balance`` field is the sum of deposit/withdrawal
    operations); register them per type on the
    :class:`~repro.lsdb.store.LSDBStore`.

    ``apply`` must never mutate its input (copy-on-write semantics).  A
    reducer may additionally provide ``fold(state, event)`` with the
    same signature that is *allowed* to mutate ``state`` in place and
    return it; the rollup uses that path for states it owns exclusively
    (the store's incremental cache), skipping the per-event copy.
    """

    def apply(self, state: Optional[EntityState], event: LogEvent) -> EntityState:
        """Return the state after folding ``event`` into ``state``
        (``state is None`` means the entity has no prior events).
        The input ``state`` must not be mutated."""
        ...


class GenericReducer:
    """Default convergent reducer for all event kinds.

    Ordering semantics:

    * ``INSERT`` overlays its payload fields and bumps the version count.
      Repeated inserts are treated as new versions of the entity
      (insert-only storage, principle 2.7).
    * ``DELTA`` applies a commutative delta; order-independent.
    * ``SET_FIELDS`` applies per-field last-update-wins using the event's
      ``(timestamp, origin)`` stamp, so replays and out-of-order merges
      converge.
    * ``TOMBSTONE`` / ``OBSOLETE`` set sticky marks.
    * ``SUMMARY`` replaces the whole field map (a compaction artefact
      standing for the run of events it summarised).
    """

    def apply(self, state: Optional[EntityState], event: LogEvent) -> EntityState:
        """Copying fold: the input state is left untouched (used where
        states are shared — snapshots, time-travel reads)."""
        return self.fold(state.copy() if state is not None else None, event)

    def fold(self, state: Optional[EntityState], event: LogEvent) -> EntityState:
        """In-place fold: mutates and returns ``state`` (creating it for
        the entity's first event).  This is the append hot path — the
        store-owned incremental cache folds every event exactly once, so
        no copy is needed."""
        if state is None:
            state = EntityState(event.entity_type, event.entity_key)
        kind = event.kind
        if kind is EventKind.INSERT:
            state.fields.update(event.payload)
            state.version_count += 1
        elif kind is EventKind.DELTA:
            # Deltas are applied straight from the payload, in place:
            # materialising a Delta object and copying the field dict
            # per event would dominate the fold cost.
            fields = state.fields
            payload = event.payload
            numeric = payload.get("numeric")
            if numeric:
                for name, amount in numeric.items():
                    fields[name] = fields.get(name, 0) + amount
            set_adds = payload.get("set_adds")
            if set_adds:
                for name, additions in set_adds.items():
                    current = fields.get(name, frozenset())
                    fields[name] = frozenset(current) | frozenset(additions)
            set_removes = payload.get("set_removes")
            if set_removes:
                for name, removals in set_removes.items():
                    current = fields.get(name, frozenset())
                    fields[name] = frozenset(current) - frozenset(removals)
        elif kind is EventKind.SET_FIELDS:
            stamp = (event.timestamp, event.origin)
            for name, value in event.payload.items():
                if stamp >= state.field_stamps.get(name, (float("-inf"), "")):
                    state.fields[name] = value
                    state.field_stamps[name] = stamp
        elif kind is EventKind.TOMBSTONE:
            state.deleted = True
        elif kind is EventKind.OBSOLETE:
            state.obsolete = True
        elif kind is EventKind.SUMMARY:
            state.fields = dict(event.payload)
            state.field_stamps = {}
            # Compaction preserves marks via tags so a summarised
            # tombstoned entity stays tombstoned after the rewrite.
            if "deleted" in event.tags:
                state.deleted = True
            if "obsolete" in event.tags:
                state.obsolete = True
            state.version_count = max(state.version_count, 1)
        state.event_count += 1
        state.last_lsn = max(state.last_lsn, event.lsn)
        state.last_timestamp = max(state.last_timestamp, event.timestamp)
        return state

    def fold_rows(
        self,
        state: Optional[EntityState],
        cols: EventColumns,
        rows: Sequence[int],
        ref: EntityRef,
    ) -> EntityState:
        """In-place fold of arena ``rows`` (all belonging to ``ref``)
        straight from the columns — no :class:`LogEvent` objects.

        This is the vectorized half of the columnar re-architecture:
        the per-run loop reads C arrays, resolves the payload once per
        event, and amortizes the state/bookkeeping lookups over the
        whole run instead of paying them per event.  Semantically it is
        ``for row: self.fold(state, event_at(row))``, field for field.
        """
        if state is None:
            state = EntityState(ref[0], ref[1])
        kinds = cols.kinds
        payloads = cols.payloads
        lsns = cols.lsns
        timestamps = cols.timestamps
        fields = state.fields
        last_lsn = state.last_lsn
        last_timestamp = state.last_timestamp
        count = 0
        for row in rows:
            kind = kinds[row]
            if kind == _DELTA:
                payload = payloads[row]
                numeric = payload.get("numeric")
                if numeric:
                    for name, amount in numeric.items():
                        fields[name] = fields.get(name, 0) + amount
                set_adds = payload.get("set_adds")
                if set_adds:
                    for name, additions in set_adds.items():
                        current = fields.get(name, frozenset())
                        fields[name] = frozenset(current) | frozenset(additions)
                set_removes = payload.get("set_removes")
                if set_removes:
                    for name, removals in set_removes.items():
                        current = fields.get(name, frozenset())
                        fields[name] = frozenset(current) - frozenset(removals)
            elif kind == _INSERT:
                fields.update(payloads[row])
                state.version_count += 1
            elif kind == _SET_FIELDS:
                stamp = (timestamps[row], cols.origin_at(row))
                stamps = state.field_stamps
                for name, value in payloads[row].items():
                    if stamp >= stamps.get(name, _NO_STAMP):
                        fields[name] = value
                        stamps[name] = stamp
            elif kind == _TOMBSTONE:
                state.deleted = True
            elif kind == _OBSOLETE:
                state.obsolete = True
            elif kind == _SUMMARY:
                fields = state.fields = dict(payloads[row])
                state.field_stamps = {}
                tags = cols.tags_at(row)
                if "deleted" in tags:
                    state.deleted = True
                if "obsolete" in tags:
                    state.obsolete = True
                state.version_count = max(state.version_count, 1)
            count += 1
            lsn = lsns[row]
            if lsn > last_lsn:
                last_lsn = lsn
            timestamp = timestamps[row]
            if timestamp > last_timestamp:
                last_timestamp = timestamp
        state.event_count += count
        state.last_lsn = last_lsn
        state.last_timestamp = last_timestamp
        return state


EntityRef = tuple[str, str]
StateMap = dict[EntityRef, EntityState]


def _resolve_folder(reducer: Reducer):
    """The fastest fold callable a reducer offers.

    ``fold`` is only trusted when the class defining it is at least as
    derived as the class defining ``apply`` — a subclass that overrides
    ``apply`` alone (e.g. to decorate the generic behaviour) must not be
    bypassed by an inherited in-place ``fold``.
    """
    cls = type(reducer)
    mro = cls.__mro__
    fold_owner = next((c for c in mro if "fold" in c.__dict__), None)
    if fold_owner is None:
        return reducer.apply
    apply_owner = next((c for c in mro if "apply" in c.__dict__), None)
    if apply_owner is not None and mro.index(apply_owner) < mro.index(fold_owner):
        return reducer.apply
    return reducer.fold


class Rollup:
    """Folds event sequences into state maps using per-type reducers.

    Args:
        reducers: Entity type name -> reducer; types not present use
            ``default_reducer``.
        default_reducer: Fallback reducer (a :class:`GenericReducer` by
            default).
    """

    def __init__(
        self,
        reducers: Mapping[str, Reducer] | None = None,
        default_reducer: Reducer | None = None,
    ):
        self._reducers: dict[str, Reducer] = dict(reducers or {})
        self._default = default_reducer or GenericReducer()
        #: entity type -> fastest folding callable (the reducer's
        #: in-place ``fold`` when it has one, else its copying ``apply``)
        self._folders: dict[str, Callable[[Optional[EntityState], LogEvent], EntityState]] = {}
        #: entity type -> columnar run-fold callable (see
        #: :meth:`rows_folder_for`).
        self._rows_folders: dict[str, Callable] = {}
        self._refresh_all_generic()

    def _refresh_all_generic(self) -> None:
        """Whether every type folds with a *stock* :class:`GenericReducer`
        — the precondition for the fused slice fold, which inlines that
        reducer's semantics."""
        self._all_generic = type(self._default) is GenericReducer and all(
            type(reducer) is GenericReducer
            for reducer in self._reducers.values()
        )

    def register(self, entity_type: str, reducer: Reducer) -> None:
        """Attach a custom reducer for ``entity_type``."""
        self._reducers[entity_type] = reducer
        self._folders.clear()
        self._rows_folders.clear()
        self._refresh_all_generic()

    def reducer_for(self, entity_type: str) -> Reducer:
        """The reducer used for ``entity_type``."""
        return self._reducers.get(entity_type, self._default)

    def folder_for(
        self, entity_type: str
    ) -> Callable[[Optional[EntityState], LogEvent], EntityState]:
        """The fastest fold callable for ``entity_type``: the reducer's
        in-place ``fold`` when it provides one, else its copying
        ``apply``.  Only safe on states the caller owns exclusively."""
        folder = self._folders.get(entity_type)
        if folder is None:
            reducer = self._reducers.get(entity_type, self._default)
            folder = _resolve_folder(reducer)
            self._folders[entity_type] = folder
        return folder

    def rows_folder_for(
        self, entity_type: str
    ) -> Callable[[Optional[EntityState], EventColumns, Sequence[int], EntityRef], EntityState]:
        """The columnar run-fold callable for ``entity_type``:
        ``(state, arena, rows, ref) -> state``.

        The stock :class:`GenericReducer` folds straight from the
        columns (:meth:`GenericReducer.fold_rows`); any custom or
        subclassed reducer gets a wrapper that materializes each row and
        goes through :meth:`folder_for`, preserving the reducer's own
        semantics exactly.  Only safe on states the caller owns.
        """
        rows_folder = self._rows_folders.get(entity_type)
        if rows_folder is None:
            reducer = self._reducers.get(entity_type, self._default)
            if type(reducer) is GenericReducer:
                rows_folder = reducer.fold_rows
            else:
                folder = self.folder_for(entity_type)

                def rows_folder(state, cols, rows, ref, _folder=folder):
                    event_at = cols.event_at
                    for row in rows:
                        state = _folder(state, event_at(row))
                    return state

            self._rows_folders[entity_type] = rows_folder
        return rows_folder

    def fold_slice_into(
        self,
        states: StateMap,
        view: EventSlice,
        type_refs: Optional[dict[str, list[EntityRef]]] = None,
        *,
        copy_shared: bool = False,
        shared: Optional[set] = None,
    ) -> None:
        """Group ``view`` by entity and fold each entity's run in one
        pass — the batch-apply reducer path.

        Grouping amortizes the folder resolution, the states-map
        get/set, and (for the generic reducer) all per-event attribute
        dispatch over each entity's whole run instead of paying them per
        event.  Per entity the events fold in view order, so the result
        is identical to per-event :meth:`fold_into` calls.

        Args:
            states: Mutated in place.  Must be caller-owned unless
                ``copy_shared`` handling is engaged.
            type_refs: When given, refs first seen by this fold are
                appended to their type's list (the store's
                ``entities_of_type`` bookkeeping), in first-event order.
            copy_shared: Copy-on-first-touch support for folding over a
                shared snapshot: a state whose ref is in ``shared`` is
                copied before folding and its ref discarded from
                ``shared``.
            shared: The set of refs still shared (required when
                ``copy_shared``).
        """
        if self._all_generic:
            # Every type folds with the stock reducer: take the fused
            # single-pass loop.  It walks rows in view order (sequential
            # column access — grouping first would scatter reads across
            # the arena and thrash caches on large slices) and resolves
            # each row's state through a per-call rid table, so the
            # states-map hashing and first-touch bookkeeping are paid
            # once per entity, not once per event.
            self._fold_slice_generic(
                states, view, type_refs, copy_shared=copy_shared, shared=shared
            )
            return
        cols = view.arena
        rows = view.rows
        ref_ids = cols.ref_ids
        # Group rows by interned ref id; dict insertion order is
        # first-occurrence order, which keeps type_refs deterministic.
        groups: dict[int, list[int]] = {}
        for row in rows:
            rid = ref_ids[row]
            bucket = groups.get(rid)
            if bucket is None:
                groups[rid] = [row]
            else:
                bucket.append(row)
        ref_tuples = cols.ref_tuples
        rows_folder_for = self.rows_folder_for
        for rid, run in groups.items():
            ref = ref_tuples[rid]
            state = states.get(ref)
            if state is None:
                if type_refs is not None:
                    type_refs.setdefault(ref[0], []).append(ref)
            elif copy_shared and ref in shared:
                state = state.copy()
                shared.discard(ref)
            states[ref] = rows_folder_for(ref[0])(state, cols, run, ref)

    def _fold_slice_generic(
        self,
        states: StateMap,
        view: EventSlice,
        type_refs: Optional[dict[str, list[EntityRef]]] = None,
        *,
        copy_shared: bool = False,
        shared: Optional[set] = None,
    ) -> None:
        """Fused slice fold: :class:`GenericReducer` semantics inlined
        into one row-order pass (see :meth:`fold_slice_into`).

        Branch for branch this is ``GenericReducer.fold_rows`` applied
        event-at-a-time in view order, so the result is identical to the
        grouped path and to per-event :meth:`fold_into` calls.
        """
        cols = view.arena
        ref_ids = cols.ref_ids
        ref_tuples = cols.ref_tuples
        kinds = cols.kinds
        payloads = cols.payloads
        lsns = cols.lsns
        timestamps = cols.timestamps
        by_rid: dict[int, EntityState] = {}
        by_rid_get = by_rid.get
        states_get = states.get
        for row in view.rows:
            rid = ref_ids[row]
            state = by_rid_get(rid)
            if state is None:
                ref = ref_tuples[rid]
                state = states_get(ref)
                if state is None:
                    if type_refs is not None:
                        type_refs.setdefault(ref[0], []).append(ref)
                    state = EntityState(ref[0], ref[1])
                elif copy_shared and ref in shared:
                    state = state.copy()
                    shared.discard(ref)
                by_rid[rid] = state
                states[ref] = state
            kind = kinds[row]
            if kind == _DELTA:
                fields = state.fields
                payload = payloads[row]
                numeric = payload.get("numeric")
                if numeric:
                    for name, amount in numeric.items():
                        fields[name] = fields.get(name, 0) + amount
                set_adds = payload.get("set_adds")
                if set_adds:
                    for name, additions in set_adds.items():
                        current = fields.get(name, frozenset())
                        fields[name] = frozenset(current) | frozenset(additions)
                set_removes = payload.get("set_removes")
                if set_removes:
                    for name, removals in set_removes.items():
                        current = fields.get(name, frozenset())
                        fields[name] = frozenset(current) - frozenset(removals)
            elif kind == _INSERT:
                state.fields.update(payloads[row])
                state.version_count += 1
            elif kind == _SET_FIELDS:
                stamp = (timestamps[row], cols.origin_at(row))
                stamps = state.field_stamps
                fields = state.fields
                for name, value in payloads[row].items():
                    if stamp >= stamps.get(name, _NO_STAMP):
                        fields[name] = value
                        stamps[name] = stamp
            elif kind == _TOMBSTONE:
                state.deleted = True
            elif kind == _OBSOLETE:
                state.obsolete = True
            elif kind == _SUMMARY:
                state.fields = dict(payloads[row])
                state.field_stamps = {}
                tags = cols.tags_at(row)
                if "deleted" in tags:
                    state.deleted = True
                if "obsolete" in tags:
                    state.obsolete = True
                if state.version_count < 1:
                    state.version_count = 1
            state.event_count += 1
            lsn = lsns[row]
            if lsn > state.last_lsn:
                state.last_lsn = lsn
            timestamp = timestamps[row]
            if timestamp > state.last_timestamp:
                state.last_timestamp = timestamp

    def fold(
        self,
        events: Iterable[LogEvent],
        initial: StateMap | None = None,
        *,
        copy_untouched: bool = False,
    ) -> StateMap:
        """Fold ``events`` (in the given order) over ``initial``.

        The initial map is not mutated; entity states are copied on
        first touch so snapshots can be shared safely.  Entities *not*
        touched by ``events`` remain shared with ``initial`` (exactly as
        before: ``dict(initial)`` shares values) unless
        ``copy_untouched=True``, which yields a fully isolated result
        map at the cost of one copy per untouched entity.
        """
        folder_for = self.folder_for
        if isinstance(events, EventSlice):
            # Columnar fast path: group-by-entity run folds, with the
            # same copy-on-first-touch discipline per entity run.
            if initial:
                states = dict(initial)
                shared = set(states)
                self.fold_slice_into(
                    states, events, copy_shared=True, shared=shared
                )
                if copy_untouched:
                    for ref in shared:
                        states[ref] = states[ref].copy()
                return states
            states = {}
            self.fold_slice_into(states, events)
            return states
        if initial:
            states: StateMap = dict(initial)
            # Refs whose state object is still shared with ``initial``;
            # the first event touching one folds over a private copy.
            shared = set(states)
            for event in events:
                ref = event.entity_ref
                state = states.get(ref)
                if state is not None and ref in shared:
                    state = state.copy()
                    shared.discard(ref)
                states[ref] = folder_for(event.entity_type)(state, event)
            if copy_untouched:
                for ref in shared:
                    states[ref] = states[ref].copy()
            return states
        # No initial map: every state is freshly created by the fold and
        # owned by the result, so the in-place path is safe throughout.
        states = {}
        for event in events:
            ref = event.entity_ref
            states[ref] = folder_for(event.entity_type)(states.get(ref), event)
        return states

    def fold_into(self, states: StateMap, event: LogEvent) -> None:
        """Fold one event into ``states`` in place (incremental cache
        maintenance on the append path).

        The caller must own ``states`` and every state in it — the
        in-place reducer path mutates them without copying.
        """
        ref = event.entity_ref
        states[ref] = self.folder_for(event.entity_type)(states.get(ref), event)
