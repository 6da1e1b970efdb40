"""A change of the log's meaning drops every fold frozen under the old one.

A schema migration (or a new reducer) reinterprets events already in
the log.  Two derived structures hold folds of those events — the
secondary indexes and the rollup checkpoint — and each must stop
answering under the old schema once the store's state map is rebuilt:
``store.read`` agrees with ``store.get``, and an index sees the upcast
field on entities written before the migration.

Until that rebuild, a row appended before the change folds under the
old meaning even if nothing had folded it yet: the same history must
not fold one way on a store that folded it at once and another on a
store that had not got to it.
"""

from __future__ import annotations

import pytest

from repro import Cluster
from repro.core.entity import EntityCatalog, EntityType, FieldSpec
from repro.core.migration import SchemaMigrationManager
from repro.lsdb.rollup import GenericReducer
from repro.lsdb.store import LSDBStore

V2 = EntityType.define(
    "order",
    [FieldSpec("total", "int", required=True), FieldSpec("currency", "str")],
    schema_version=2,
)


def migrating_store(store=None):
    catalog = EntityCatalog()
    catalog.register(
        EntityType.define("order", [FieldSpec("total", "int", required=True)])
    )
    migrations = SchemaMigrationManager(catalog)
    store = store if store is not None else LSDBStore()
    migrations.attach_store(store)
    return store, migrations


def ladder_store() -> LSDBStore:
    """A master store built the way the end-to-end ladder builds one."""
    cluster = (
        Cluster.build(seed=5)
        .with_network(latency=2.0)
        .with_batching(max_batch=64)
        .with_replicas(3, mode="master_slave", ship_interval=10.0)
        .create()
    )
    return cluster.replication.master.store


class Cents(GenericReducer):
    """A domain reducer that also keeps the total in cents."""

    def apply(self, state, event):
        state = super().apply(state, event)
        state.fields["cents"] = state.fields.get("total", 0) * 100
        return state


def migrate(migrations: SchemaMigrationManager) -> None:
    migrations.apply(V2, upcast=lambda payload: {**payload, "currency": "EUR"})


class TestStoreReadAfterMigration:
    @pytest.mark.parametrize(
        "reads",
        [("before_apply",), ("between",), ("before_apply", "between")],
        ids=["read_before_apply", "read_between", "read_both"],
    )
    def test_read_serves_the_rebuilt_fold(self, reads):
        store, migrations = migrating_store()
        store.insert("order", "o1", {"total": 9})
        if "before_apply" in reads:
            assert store.read("order", "o1").fields == {"total": 9}
        migrate(migrations)
        if "between" in reads:
            # The state map is not rebuilt yet: the old fold is served.
            assert store.read("order", "o1").fields == {"total": 9}
        store.rebuild_cache()
        expected = {"total": 9, "currency": "EUR"}
        assert store.get("order", "o1").fields == expected
        assert store.read("order", "o1").fields == expected


class TestIndexAfterMigration:
    def test_index_sees_the_upcast_field_on_old_entities(self):
        store, migrations = migrating_store()
        index = store.register_index("order", "currency")
        store.insert("order", "o1", {"total": 9})
        store.refresh_indexes()
        assert store.query("order", "currency", "EUR") == set()
        migrate(migrations)
        store.rebuild_cache()
        # The index was reset: its lag shows the re-fold still owed.
        assert index.lag == store.log.head_lsn
        store.refresh_indexes()
        assert store.query("order", "currency", "EUR") == {"o1"}
        assert index.lag == 0


class TestPendingWriteAtReinterpretation:
    """A ladder store with its write still unfolded reads what a store
    that folded it at once reads, across both ways to change the log's
    meaning, and the rebuild then re-reads it under the new one."""

    def test_migration_folds_the_pending_row_under_the_old_chain(self):
        folded_at_once, _ = migrating_store()
        store, migrations = migrating_store(ladder_store())
        for each in (folded_at_once, store):
            each.insert("order", "o1", {"total": 9})
        folded_at_once.get("order", "o1")
        assert store.unfolded == 1
        migrate(migrations)
        assert store.get("order", "o1").fields == {"total": 9}
        assert store.get("order", "o1") == folded_at_once.get("order", "o1")
        store.rebuild_cache()
        assert store.get("order", "o1").fields == {"total": 9, "currency": "EUR"}

    def test_new_reducer_folds_the_pending_row_under_the_old_one(self):
        folded_at_once, store = LSDBStore(), ladder_store()
        for each in (folded_at_once, store):
            each.insert("order", "o1", {"total": 9})
        folded_at_once.get("order", "o1")
        assert store.unfolded == 1
        for each in (folded_at_once, store):
            each.register_reducer("order", Cents())
        assert store.get("order", "o1").fields == {"total": 9}
        assert store.get("order", "o1") == folded_at_once.get("order", "o1")
        store.rebuild_cache()
        assert store.get("order", "o1").fields == {"total": 9, "cents": 900}

