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

Those semantics are written twice: per event in
:meth:`GenericReducer.fold`, and over arena columns in
:meth:`Rollup.fold_slice_into` — the one columnar fold, through which
the store maintains its incremental cache, rebuilds it, and refreshes
its secondary indexes (``tests/test_fold_kernel.py`` holds the two
equal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Protocol

from repro.lsdb.columnar import KIND_CODES, EventSlice
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
    them live in every rollup checkpoint, so the instance
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
        states are shared — checkpoints, time-travel reads)."""
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
        #: Reducers whose semantics :meth:`fold_slice_into` does not
        #: inline (anything but a stock :class:`GenericReducer`, default
        #: included).  Empty — the common case — means every row folds
        #: inline.  It may keep a replaced reducer, which only costs the
        #: kernel its per-type check.
        self._others: list[Reducer] = [
            reducer
            for reducer in (self._default, *self._reducers.values())
            if type(reducer) is not GenericReducer
        ]

    def register(self, entity_type: str, reducer: Reducer) -> None:
        """Attach a custom reducer for ``entity_type``."""
        self._reducers[entity_type] = reducer
        self._folders.clear()
        if type(reducer) is not GenericReducer:
            self._others.append(reducer)

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

    def fold_slice_into(
        self,
        states: StateMap,
        view: EventSlice,
        type_refs: Optional[dict[str, list[EntityRef]]] = None,
        *,
        copy_shared: bool = False,
        shared: Optional[set] = None,
    ) -> None:
        """Fold ``view`` into ``states`` in one row-order pass — the one
        columnar fold every state map in the store is maintained by.

        Rows are walked in view order (sequential column access), and a
        per-call rid table resolves each row's state, so the states-map
        hashing and first-touch bookkeeping are paid once per entity,
        not once per event.  The stock :class:`GenericReducer`'s
        semantics are inlined branch for branch, straight from the
        columns; a row whose type folds through any other reducer goes
        through :meth:`folder_for` on the materialized event, in the
        same pass.  Either way the result is identical to per-event
        :meth:`fold_into` calls in view order.

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
        cols = view.arena
        ref_ids = cols.ref_ids
        ref_tuples = cols.ref_tuples
        kinds = cols.kinds
        payloads = cols.payloads
        lsns = cols.lsns
        timestamps = cols.timestamps
        others = self._others
        # rid -> state of each entity this call folds inline.  An entity
        # folded through another reducer never enters it, so each of its
        # rows takes the first-touch branch (which is idempotent).
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
                elif copy_shared and ref in shared:
                    state = state.copy()
                    shared.discard(ref)
                if others and type(self.reducer_for(ref[0])) is not GenericReducer:
                    states[ref] = self.folder_for(ref[0])(state, cols.event_at(row))
                    continue
                if state is None:
                    state = EntityState(ref[0], ref[1])
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
        first touch so a frozen checkpoint can be shared safely.  Entities *not*
        touched by ``events`` remain shared with ``initial`` (exactly as
        before: ``dict(initial)`` shares values) unless
        ``copy_untouched=True``, which yields a fully isolated result
        map at the cost of one copy per untouched entity.
        """
        folder_for = self.folder_for
        if isinstance(events, EventSlice):
            # Columnar path: the one slice fold, with the same
            # copy-on-first-touch discipline per entity.
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
        """Fold one event into ``states`` in place — the per-event form
        of :meth:`fold_slice_into`, for callers holding a
        :class:`LogEvent` rather than arena rows.

        The caller must own ``states`` and every state in it — the
        in-place reducer path mutates them without copying.
        """
        ref = event.entity_ref
        states[ref] = self.folder_for(event.entity_type)(states.get(ref), event)
