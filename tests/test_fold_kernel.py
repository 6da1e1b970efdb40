"""The one columnar fold against an event-by-event reference.

``Rollup.fold_slice_into`` is the only fold of a state map over arena
columns: the store's incremental cache (a read's catch-up, the
unfolded-suffix fold, frame applies and rebuilds) and every secondary
index go through it.  It
inlines the stock ``GenericReducer`` and sends rows of any other
reducer through that reducer, in the same row-order pass.  This is its
licence: on arena-built slices of every shape, every event kind and a
mix of reducers, it equals folding the materialised events one at a
time through each type's reducer — field for field, in the same key
order, with the same first-seen ``type_refs`` — and it never mutates a
state it was told is shared.
"""

from __future__ import annotations

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entity import EntityCatalog, EntityType, FieldSpec
from repro.core.migration import MigratingReducer, SchemaMigrationManager
from repro.lsdb.columnar import EventColumns, EventSlice
from repro.lsdb.events import EventKind, LogEvent
from repro.lsdb.log import AppendOnlyLog
from repro.lsdb.rollup import EntityState, GenericReducer, Rollup

TYPES = ("acct", "item", "ledger", "order")
KEYS = ("k0", "k1", "k2")


class CountingReducer:
    """An apply-only reducer (no in-place ``fold``): counts events."""

    def apply(self, state: Optional[EntityState], event: LogEvent) -> EntityState:
        if state is None:
            state = EntityState(event.entity_type, event.entity_key)
        else:
            state = state.copy()
        state.fields["n"] = state.fields.get("n", 0) + 1
        state.event_count += 1
        state.last_lsn = max(state.last_lsn, event.lsn)
        return state


class AuditedReducer(GenericReducer):
    """A subclass that decorates ``apply`` only, so it folds through
    ``apply``: a non-stock default."""

    def apply(self, state: Optional[EntityState], event: LogEvent) -> EntityState:
        state = super().apply(state, event)
        state.fields["audited"] = state.fields.get("audited", 0) + 1
        return state


def migrating_reducer() -> MigratingReducer:
    """``order`` at schema v2; v1 payloads gain ``currency`` when folded."""
    catalog = EntityCatalog()
    catalog.register(EntityType.define("order", [FieldSpec("a", "int")]))
    manager = SchemaMigrationManager(catalog)
    manager.apply(
        EntityType.define(
            "order",
            [FieldSpec("a", "int"), FieldSpec("currency", "str")],
            schema_version=2,
        ),
        upcast=lambda payload: {**payload, "currency": "EUR"},
    )
    return MigratingReducer(manager)


def make_rollup(shape: str) -> Rollup:
    if shape == "stock":
        return Rollup()
    if shape == "custom":
        rollup = Rollup({"order": migrating_reducer()})
        rollup.register("ledger", CountingReducer())
        return rollup
    # A non-stock default, with one type registered back to the stock
    # reducer (folded inline) and two custom ones.
    return Rollup(
        {
            "acct": GenericReducer(),
            "ledger": CountingReducer(),
            "order": migrating_reducer(),
        },
        default_reducer=AuditedReducer(),
    )


# ---------------------------------------------------------------------- #
# Generated arenas and slices
# ---------------------------------------------------------------------- #

names = st.sampled_from(["a", "b", "c"])
numbers = st.integers(min_value=-5, max_value=5)
field_maps = st.dictionaries(names, numbers, max_size=3)
members = st.lists(st.integers(min_value=0, max_value=4), max_size=3)
deltas = st.fixed_dictionaries(
    {},
    optional={
        "numeric": st.dictionaries(names, numbers, min_size=1, max_size=2),
        "set_adds": st.dictionaries(st.just("s"), members, min_size=1),
        "set_removes": st.dictionaries(st.just("s"), members, min_size=1),
    },
)
PAYLOADS = {
    EventKind.INSERT: field_maps,
    EventKind.DELTA: deltas,
    EventKind.SET_FIELDS: field_maps,
    EventKind.TOMBSTONE: st.just({}),
    EventKind.OBSOLETE: st.just({}),
    EventKind.SUMMARY: field_maps,
}


@st.composite
def arenas(draw) -> EventColumns:
    """An arena of 1-40 rows over every kind, type and two origins, with
    timestamp ties so ``SET_FIELDS`` stamps fall back to the origin."""
    log = AppendOnlyLog()
    for lsn in range(1, draw(st.integers(min_value=1, max_value=40)) + 1):
        kind = draw(st.sampled_from(list(EventKind)))
        tags = frozenset()
        if kind is EventKind.SUMMARY:
            tags = frozenset(draw(st.sets(st.sampled_from(["deleted", "obsolete"]))))
        log.append_row(
            draw(st.sampled_from([0.0, 1.0, 2.0])),
            draw(st.sampled_from(TYPES)),
            draw(st.sampled_from(KEYS)),
            kind,
            draw(PAYLOADS[kind]),
            draw(st.sampled_from(["r1", "r2"])),
            lsn,
            "",
            draw(st.sampled_from([1, 2])),
            tags,
        )
    return log.arena


@st.composite
def slices(draw, cols: EventColumns) -> EventSlice:
    """A contiguous range, a scattered row list in any order, or a
    single row."""
    count = len(cols)
    shape = draw(st.sampled_from(["range", "scattered", "single"]))
    if shape == "range":
        low = draw(st.integers(min_value=0, max_value=count - 1))
        high = draw(st.integers(min_value=low + 1, max_value=count))
        return EventSlice(cols, range(low, high))
    if shape == "scattered":
        rows = draw(
            st.lists(st.integers(min_value=0, max_value=count - 1), unique=True)
        )
        return EventSlice(cols, rows)
    return EventSlice(cols, (draw(st.integers(min_value=0, max_value=count - 1)),))


# ---------------------------------------------------------------------- #
# The reference and the comparison
# ---------------------------------------------------------------------- #


def reference_fold(rollup: Rollup, view: EventSlice, initial: dict, type_refs: dict):
    """One materialised event at a time through each type's copying
    ``apply`` — the ``Reducer`` protocol, nothing columnar."""
    states = {ref: state.copy() for ref, state in initial.items()}
    for row in view.rows:
        event = view.arena.event_at(row)
        ref = event.entity_ref
        if ref not in states:
            type_refs.setdefault(ref[0], []).append(ref)
        states[ref] = rollup.reducer_for(event.entity_type).apply(states.get(ref), event)
    return states


def assert_same_states(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for ref in want:
        # repr covers every field, dict order and value types included.
        assert repr(got[ref]) == repr(want[ref]), ref


@settings(max_examples=100, deadline=None)
@given(data=st.data(), shape=st.sampled_from(["stock", "custom", "custom_default"]))
def test_slice_fold_equals_event_by_event_reference(data, shape):
    cols = data.draw(arenas())
    view = data.draw(slices(cols))
    rollup = make_rollup(shape)

    states: dict = {}
    type_refs: dict = {}
    rollup.fold_slice_into(states, view, type_refs)

    want_refs: dict = {}
    want = reference_fold(make_rollup(shape), view, {}, want_refs)
    assert_same_states(states, want)
    assert list(type_refs.items()) == list(want_refs.items())
    assert sum(state.event_count for state in states.values()) == len(view)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), shape=st.sampled_from(["stock", "custom", "custom_default"]))
def test_folding_over_shared_states_leaves_them_untouched(data, shape):
    cols = data.draw(arenas())
    view = data.draw(slices(cols))
    prefix = EventSlice(cols, range(data.draw(st.integers(0, len(cols)))))
    rollup = make_rollup(shape)
    initial_refs: dict = {}
    initial = reference_fold(rollup, prefix, {}, initial_refs)
    frozen = {ref: repr(state) for ref, state in initial.items()}

    states = dict(initial)
    shared = set(states)
    type_refs = {name: list(refs) for name, refs in initial_refs.items()}
    rollup.fold_slice_into(states, view, type_refs, copy_shared=True, shared=shared)

    want_refs = {name: list(refs) for name, refs in initial_refs.items()}
    want = reference_fold(rollup, view, initial, want_refs)
    assert_same_states(states, want)
    assert list(type_refs.items()) == list(want_refs.items())
    assert {ref: repr(state) for ref, state in initial.items()} == frozen
    touched = {view.arena.ref_tuples[view.arena.ref_ids[row]] for row in view.rows}
    assert shared == set(initial) - touched
    for ref in initial:
        assert (states[ref] is initial[ref]) == (ref not in touched)

    isolated = rollup.fold(view, initial, copy_untouched=True)
    assert_same_states(isolated, want)
    assert not any(isolated[ref] is initial[ref] for ref in initial)
    assert {ref: repr(state) for ref, state in initial.items()} == frozen


def test_a_reducer_registered_later_sees_only_its_own_rows():
    """Stock rows keep folding inline from the columns; only the custom
    type's rows reach its reducer, as events, in view order."""
    log = AppendOnlyLog()
    for lsn, entity_type in enumerate(["acct", "ledger", "acct", "ledger"], 1):
        log.append_row(0.0, entity_type, "k", EventKind.INSERT, {"a": lsn})
    cols = log.arena
    seen = []

    class Spy(CountingReducer):
        def apply(self, state, event):
            seen.append(event.lsn)
            return super().apply(state, event)

    rollup = Rollup()
    states: dict = {}
    rollup.fold_slice_into(states, EventSlice(cols, range(4)))
    assert states[("ledger", "k")].fields == {"a": 4}

    rollup.register("ledger", Spy())
    states = {}
    rollup.fold_slice_into(states, EventSlice(cols, range(4)))
    assert seen == [2, 4]
    assert states[("acct", "k")].fields == {"a": 3}
    assert states[("ledger", "k")].fields == {"n": 2}
