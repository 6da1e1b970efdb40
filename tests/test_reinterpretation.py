"""A change of the log's meaning drops every fold frozen under the old one.

A schema migration (or a new reducer) reinterprets events already in
the log.  Three derived structures hold folds of those events — the
read cache, the secondary indexes and the rollup checkpoint — and each
must stop answering under the old schema once the store's state map is
rebuilt: ``store.read`` agrees with ``store.get``, and an index sees the
upcast field on entities written before the migration.
"""

from __future__ import annotations

import pytest

from repro.core.entity import EntityCatalog, EntityType, FieldSpec
from repro.core.migration import SchemaMigrationManager
from repro.lsdb.readcache import ReadCache
from repro.lsdb.store import LSDBStore

V2 = EntityType.define(
    "order",
    [FieldSpec("total", "int", required=True), FieldSpec("currency", "str")],
    schema_version=2,
)


def migrating_store():
    catalog = EntityCatalog()
    catalog.register(
        EntityType.define("order", [FieldSpec("total", "int", required=True)])
    )
    migrations = SchemaMigrationManager(catalog)
    store = LSDBStore()
    migrations.attach_store(store)
    return store, migrations


def migrate(migrations: SchemaMigrationManager) -> None:
    migrations.apply(V2, upcast=lambda payload: {**payload, "currency": "EUR"})


class TestCachedStoreAfterMigration:
    @pytest.mark.parametrize(
        "reads",
        [("before_apply",), ("between",), ("before_apply", "between")],
        ids=["read_before_apply", "read_between", "read_both"],
    )
    def test_read_serves_the_rebuilt_fold(self, reads):
        store, migrations = migrating_store()
        ReadCache.over_store(store)
        store.insert("order", "o1", {"total": 9})
        if "before_apply" in reads:
            assert store.read("order", "o1").fields == {"total": 9}
        migrate(migrations)
        if "between" in reads:
            # The state map is not rebuilt yet: the old fold is served,
            # and cached at the head's watermark.
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
