"""Kept mutants: each row breaks the product on purpose, in process, and
runs the one test named to catch that break, which must then fail.

A mutant is a ``monkeypatch`` of the product, so the product needs no
switch for it; it is undone when its row ends.  The killer is called
directly (fixtures built by hand) under the mutant, and kills it by
failing: an assertion, or a ``pytest.raises`` that saw nothing raised.
A row whose killer passes means a test has lost its teeth.  Every
killer also runs, and passes, unmutated in its own file.

Rows, grouped by the mechanism each breaks:

* the fold paid once: the ship round skips the fold; ``get``
  folds the whole unfolded suffix as the old write coalescer's flush
  did; the per-entity catch-up forgets how far it folded; a
  reinterpretation (a migration or a new reducer) skips the fold of the
  rows appended under the old meaning; an append skips its entity's
  first-touch record; a suffix fold leaves an entity a read folded early
  out of first-event order;
* a row costs bytes: a frame's decode drops its tx-id slice;
  ``validate()`` skips the tx-id column; a position in a contiguous
  feed is off by one;
* the one read path: a store's ``serve`` answers from its state map
  without folding the entity's unfolded rows;
* a surface says what it can serve: a quorum declares STRONG, which its
  ``serve`` cannot answer; an active/active group declares BOUNDED;
* older mechanisms: snapshot commits drop first-committer-wins, and a
  quorum write acks before its quorum.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.core.consistency import ConsistencyLevel
from repro.core.migration import SchemaMigrationManager
from repro.core.readpath import READ_LEVELS
from repro.core.transaction import TransactionManager
from repro.lsdb.columnar import ColumnFrame, EventColumns
from repro.lsdb.store import LSDBStore
from repro.replication.active_active import ActiveActiveGroup
from repro.replication.quorum import QuorumCoordinator, QuorumGroup
from repro.replication.replica import ReplicaNode
from repro.sim.scheduler import Simulator
from tests import (
    test_failure_injection,
    test_fold_once,
    test_frame_ingest,
    test_frontdoor,
    test_isolation_modes,
    test_read_path,
    test_read_protocol,
    test_reinterpretation,
    test_row_bytes,
    test_write_cost,
)


@contextmanager
def folds_nothing(stores):
    """``fold_pending`` does nothing on ``stores`` while the block runs."""
    for store in stores:
        store.fold_pending = lambda: 0
    try:
        yield
    finally:
        for store in stores:
            del store.fold_pending


def ship_round_skips_the_fold(monkeypatch):
    original = ReplicaNode.ship_backlog

    def ship_backlog(self, destination):
        with folds_nothing([self.store]):
            return original(self, destination)

    monkeypatch.setattr(ReplicaNode, "ship_backlog", ship_backlog)


def get_folds_the_whole_suffix(monkeypatch):
    def get(self, entity_type, entity_key):
        self.fold_pending()
        return self._states.get((entity_type, entity_key))

    monkeypatch.setattr(LSDBStore, "get", get)


def catch_up_forgets_how_far_it_folded(monkeypatch):
    original = LSDBStore._catch_up

    def catch_up(self, rid, rows):
        original(self, rid, rows)
        del self._caught_up[rid]

    monkeypatch.setattr(LSDBStore, "_catch_up", catch_up)


def migration_skips_the_fold(monkeypatch):
    original = SchemaMigrationManager.apply

    def apply(self, *args, **kwargs):
        with folds_nothing(self._attached_stores):
            return original(self, *args, **kwargs)

    monkeypatch.setattr(SchemaMigrationManager, "apply", apply)


def new_reducer_skips_the_fold(monkeypatch):
    original = LSDBStore.register_reducer

    def register_reducer(self, entity_type, reducer):
        with folds_nothing([self]):
            original(self, entity_type, reducer)

    monkeypatch.setattr(LSDBStore, "register_reducer", register_reducer)


def append_skips_the_first_touch_record(monkeypatch):
    original = LSDBStore._on_append_row

    def on_append_row(self, cols, row):
        lengths = {name: len(refs) for name, refs in self._type_refs.items()}
        original(self, cols, row)
        for name, refs in self._type_refs.items():
            del refs[lengths.get(name, 0):]

    monkeypatch.setattr(LSDBStore, "_on_append_row", on_append_row)


def first_event_order_skips_an_early_entity(monkeypatch):
    original = LSDBStore._first_event_order

    def first_event_order(self, added, early):
        if early > 1:
            original(self, added, early - 1)

    monkeypatch.setattr(LSDBStore, "_first_event_order", first_event_order)


def decode_drops_the_tx_id_slice(monkeypatch):
    original = EventColumns.append_frame

    def append_frame(self, frame, start, stop, first_lsn):
        rows = original(self, frame, start, stop, first_lsn)
        self.tx_ids[rows.start:] = [""] * len(rows)
        return rows

    monkeypatch.setattr(EventColumns, "append_frame", append_frame)


def validate_skips_the_tx_id_column(monkeypatch):
    original = ColumnFrame.validate

    def validate(self):
        tx_ids, self.tx_ids = self.tx_ids, [""] * len(self.lsns)
        try:
            original(self)
        finally:
            self.tx_ids = tx_ids

    monkeypatch.setattr(ColumnFrame, "validate", validate)


def contiguous_feed_position_is_off_by_one(monkeypatch):
    original = LSDBStore._feed_start

    def feed_start(self, origin, rows, after_seq):
        start = original(self, origin, rows, after_seq)
        return start if origin in self._keyed_feeds else start + 1

    monkeypatch.setattr(LSDBStore, "_feed_start", feed_start)


def serve_skips_the_pending_fold(monkeypatch):
    def serve(self, entity_type, entity_key, level, **options):
        state = self._states.get((entity_type, entity_key))
        return state, level, 0.0, self.name, ""

    monkeypatch.setattr(LSDBStore, "serve", serve)


def quorum_declares_strong(monkeypatch):
    monkeypatch.setattr(QuorumGroup, "levels", READ_LEVELS)


def active_active_declares_bounded(monkeypatch):
    monkeypatch.setattr(
        ActiveActiveGroup,
        "levels",
        (ConsistencyLevel.BOUNDED_STALENESS, ConsistencyLevel.EVENTUAL),
    )


def commit_drops_first_committer_wins(monkeypatch):
    monkeypatch.setattr(
        TransactionManager, "_first_committer_conflict", lambda self, tx: ""
    )


def quorum_write_acks_on_the_first_reply(monkeypatch):
    original = QuorumCoordinator.start

    def start(self, kind, needed, payload, on_done):
        return original(self, kind, 1 if kind == "write" else needed, payload, on_done)

    monkeypatch.setattr(QuorumCoordinator, "start", start)


def read_your_writes_killer():
    clock = test_read_path.Clock()
    store = LSDBStore(name="hot", origin="hot", clock=clock)
    test_read_path.TestTypedStoreRead().test_typed_read_sees_its_own_unfolded_writes(
        store, clock, "strong"
    )


@dataclass(frozen=True)
class Mutant:
    name: str
    apply: Callable
    killer: str
    run_killer: Callable[[], None]


MUTANTS = [
    Mutant(
        "ship_round_skips_the_fold",
        ship_round_skips_the_fold,
        "tests/test_fold_once.py::"
        "test_a_ship_round_leaves_its_shipper_nothing_to_fold[master_slave]",
        lambda: test_fold_once.test_a_ship_round_leaves_its_shipper_nothing_to_fold(
            test_fold_once.master_slave_cluster
        ),
    ),
    Mutant(
        "get_folds_the_whole_suffix",
        get_folds_the_whole_suffix,
        "tests/test_write_cost.py::test_warm_store_get_folds_only_its_own_rows[2-63]",
        lambda: test_write_cost.test_warm_store_get_folds_only_its_own_rows(2, 63),
    ),
    Mutant(
        "catch_up_forgets_how_far_it_folded",
        catch_up_forgets_how_far_it_folded,
        "tests/test_fold_once.py::"
        "test_folding_on_demand_equals_folding_every_row_at_once",
        test_fold_once.test_folding_on_demand_equals_folding_every_row_at_once,
    ),
    Mutant(
        "migration_skips_the_fold",
        migration_skips_the_fold,
        "tests/test_reinterpretation.py::TestStoreReadAfterMigration::"
        "test_read_serves_the_rebuilt_fold[read_between]",
        lambda: test_reinterpretation.TestStoreReadAfterMigration()
        .test_read_serves_the_rebuilt_fold(("between",)),
    ),
    Mutant(
        "new_reducer_skips_the_fold",
        new_reducer_skips_the_fold,
        "tests/test_reinterpretation.py::TestPendingWriteAtReinterpretation::"
        "test_new_reducer_folds_the_pending_row_under_the_old_one",
        lambda: test_reinterpretation.TestPendingWriteAtReinterpretation()
        .test_new_reducer_folds_the_pending_row_under_the_old_one(),
    ),
    Mutant(
        "append_skips_the_first_touch_record",
        append_skips_the_first_touch_record,
        "tests/test_fold_once.py::TestFoldOnDemand::"
        "test_a_read_of_a_new_entity_keeps_first_event_order",
        lambda: test_fold_once.TestFoldOnDemand()
        .test_a_read_of_a_new_entity_keeps_first_event_order(),
    ),
    Mutant(
        "first_event_order_skips_an_early_entity",
        first_event_order_skips_an_early_entity,
        "tests/test_fold_once.py::TestFoldOnDemand::"
        "test_a_read_of_a_new_entity_keeps_first_event_order",
        lambda: test_fold_once.TestFoldOnDemand()
        .test_a_read_of_a_new_entity_keeps_first_event_order(),
    ),
    Mutant(
        "decode_drops_the_tx_id_slice",
        decode_drops_the_tx_id_slice,
        "tests/test_frame_ingest.py::test_frame_ingest_equals_per_event_ingest",
        test_frame_ingest.test_frame_ingest_equals_per_event_ingest,
    ),
    Mutant(
        "validate_skips_the_tx_id_column",
        validate_skips_the_tx_id_column,
        "tests/test_frame_ingest.py::"
        "test_malformed_frame_is_rejected_before_the_arena_moves[truncate_tx_ids]",
        lambda: test_frame_ingest.test_malformed_frame_is_rejected_before_the_arena_moves(
            test_frame_ingest.truncate_tx_ids
        ),
    ),
    Mutant(
        "contiguous_feed_position_is_off_by_one",
        contiguous_feed_position_is_off_by_one,
        "tests/test_row_bytes.py::test_feed_positions_equal_a_bisect_over_the_sequences",
        test_row_bytes.test_feed_positions_equal_a_bisect_over_the_sequences,
    ),
    Mutant(
        "serve_skips_the_pending_fold",
        serve_skips_the_pending_fold,
        "tests/test_read_path.py::TestTypedStoreRead::"
        "test_typed_read_sees_its_own_unfolded_writes[strong]",
        read_your_writes_killer,
    ),
    Mutant(
        "quorum_declares_strong",
        quorum_declares_strong,
        "tests/test_frontdoor.py::test_a_fault_free_door_never_trips_a_breaker[quorum]",
        lambda: test_frontdoor.test_a_fault_free_door_never_trips_a_breaker("quorum"),
    ),
    Mutant(
        "active_active_declares_bounded",
        active_active_declares_bounded,
        "tests/test_read_protocol.py::"
        "test_a_surface_serves_exactly_what_it_declares[active_active]",
        lambda: test_read_protocol.test_a_surface_serves_exactly_what_it_declares(
            test_read_protocol.SURFACES["active_active"]()
        ),
    ),
    Mutant(
        "commit_drops_first_committer_wins",
        commit_drops_first_committer_wins,
        "tests/test_isolation_modes.py::TestSnapshotIsolation::"
        "test_first_committer_wins",
        lambda: test_isolation_modes.TestSnapshotIsolation().test_first_committer_wins(
            Simulator(seed=42)
        ),
    ),
    Mutant(
        "quorum_write_acks_on_the_first_reply",
        quorum_write_acks_on_the_first_reply,
        "tests/test_failure_injection.py::TestQuorumFailures::"
        "test_majority_crash_blocks_writes",
        lambda: test_failure_injection.TestQuorumFailures()
        .test_majority_crash_blocks_writes(),
    ),
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed_by_its_named_test(mutant, monkeypatch):
    mutant.apply(monkeypatch)
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        mutant.run_killer()
