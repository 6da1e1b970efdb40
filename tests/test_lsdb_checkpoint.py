"""Rollup checkpoints and O(delta) recovery.

A checkpoint freezes the incremental cache (states, type refs, version
vector, index snapshots) as of one LSN; recovery restores it and folds
only the suffix.  These tests pin the byte-identity of restored state,
the policy triggers, the invalidation rules (reducer, migration,
compaction), and the checkpoint-seeded bootstrap of a brand-new replica.
"""

from __future__ import annotations

import pytest

from repro.core.entity import EntityCatalog, EntityType, FieldSpec
from repro.core.migration import SchemaMigrationManager
from repro.errors import ReproError
from repro.lsdb.checkpoint import Checkpoint, CheckpointPolicy
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.replication.batching import BatchPolicy
from repro.replication.replica import ReplicaNode
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


def populated_store(events: int = 60, **store_kwargs) -> LSDBStore:
    store = LSDBStore(**store_kwargs)
    store.insert("acct", "a", {"bal": 0, "tier": "gold"})
    store.insert("acct", "b", {"bal": 0, "tier": "silver"})
    for index in range(events):
        store.apply_delta("acct", "a" if index % 2 else "b", Delta.add("bal", 1))
    return store


def time_travel_store() -> LSDBStore:
    """Eleven appends under a checkpoint every four: the one kept is at
    LSN 8, and ``b`` is untouched after it."""
    store = LSDBStore()
    store.enable_checkpoints(CheckpointPolicy(every_events=4))
    store.insert("acct", "a", {"bal": 0})
    store.insert("acct", "b", {"bal": 100})
    for _ in range(9):
        store.apply_delta("acct", "a", Delta.add("bal", 1))
    return store


def folded_lengths(store: LSDBStore) -> list[int]:
    """Record how many events each ``store.rollup.fold`` call is given."""
    lengths: list[int] = []
    fold = store.rollup.fold

    def counting(events, *args, **kwargs):
        lengths.append(len(events))
        return fold(events, *args, **kwargs)

    store.rollup.fold = counting
    return lengths


class TestPolicyTriggers:
    def test_every_events_takes_checkpoints(self):
        store = LSDBStore()
        manager = store.enable_checkpoints(CheckpointPolicy(every_events=10))
        for index in range(25):
            store.insert("acct", f"k{index}", {"bal": index})
        assert manager.taken == 2
        assert manager.latest().lsn == 20
        assert manager.delta_events == 5

    def test_manual_take_always_works(self):
        store = populated_store()
        manager = store.enable_checkpoints()  # no count trigger
        assert manager.latest() is None
        checkpoint = manager.take()
        assert checkpoint.lsn == store.log.head_lsn
        assert manager.latest() is checkpoint

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(every_events=-1)


class TestRecovery:
    def test_rebuild_from_checkpoint_is_byte_identical_to_full_fold(self):
        store = populated_store(50)
        store.enable_checkpoints().take()
        for _ in range(7):  # delta after the checkpoint
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        live = {ref: state.copy() for ref, state in store.current_state().items()}
        replayed = store.rebuild_cache()
        assert replayed == 7  # only the suffix was folded
        assert store.current_state() == live
        assert store.rebuild_cache(full=True) == store.log.head_lsn
        assert store.current_state() == live

    def test_recover_reports_what_it_did(self):
        store = populated_store(40)
        store.enable_checkpoints(CheckpointPolicy(every_events=10))
        index = store.register_index("acct", "tier")
        index.refresh()
        store.checkpoints.take()
        store.apply_delta("acct", "a", Delta.add("bal", 5))
        report = store.recover()
        assert report.used_checkpoint
        assert report.checkpoint_lsn == store.log.head_lsn - 1
        assert report.events_replayed == 1
        assert report.indexes_restored == 1
        assert index.lookup("gold") == {"a"}

    def test_recover_without_checkpoint_replays_everything(self):
        store = populated_store(30)
        report = store.recover()
        assert not report.used_checkpoint
        assert report.events_replayed == store.log.head_lsn
        assert store.get("acct", "a").fields["bal"] == 15

    def test_index_snapshot_round_trip(self):
        store = populated_store(20)
        index = store.register_index("acct", "tier")
        index.refresh()
        store.enable_checkpoints().take()
        store.set_fields("acct", "a", {"tier": "platinum"})
        index.refresh()
        assert index.lookup("platinum") == {"a"}
        store.recover()
        # Restored from the snapshot, then refreshed over the suffix.
        assert index.lookup("platinum") == {"a"}
        assert index.lookup("gold") == set()

    def test_state_as_of_head_replays_only_after_the_checkpoint(self):
        store = time_travel_store()
        assert store.checkpoints.latest().lsn == 8
        lengths = folded_lengths(store)
        states = store.state_as_of(store.log.head_lsn)
        assert lengths == [3]
        assert states[("acct", "a")].fields["bal"] == 9
        assert states == store.current_state()

    def test_state_as_of_below_the_checkpoint_folds_from_scratch(self):
        store = time_travel_store()
        lengths = folded_lengths(store)
        assert store.state_as_of(4)[("acct", "a")].fields["bal"] == 2
        assert lengths == [4]

    def test_state_as_of_historic_lsn_without_checkpoints(self):
        store = populated_store(10)
        assert store.state_as_of(4)[("acct", "b")].fields["bal"] == 1

    def test_state_as_of_zero_is_empty(self):
        assert time_travel_store().state_as_of(0) == {}

    def test_state_as_of_shares_nothing_with_the_checkpoint(self):
        store = time_travel_store()
        checkpoint = store.checkpoints.latest()
        frozen = {ref: state.copy() for ref, state in checkpoint.states.items()}
        head = store.state_as_of(store.log.head_lsn)
        at_checkpoint = store.state_as_of(checkpoint.lsn)
        for states in (head, at_checkpoint):
            for state in states.values():  # touched and untouched alike
                state.fields["bal"] = -1
        store.apply_delta("acct", "b", Delta.add("bal", 10))
        assert store.state_as_of(store.log.head_lsn)[("acct", "b")].fields[
            "bal"
        ] == 110
        assert checkpoint.states == frozen


class TestInvalidation:
    def test_new_reducer_discards_the_checkpoint(self):
        store = populated_store()
        manager = store.enable_checkpoints()
        manager.take()
        store.register_reducer("acct", store.rollup.reducer_for("acct"))
        assert manager.latest() is None
        assert manager.invalidations == 1

    def test_migration_discards_the_checkpoint(self):
        catalog = EntityCatalog()
        catalog.register(
            EntityType.define("order", [FieldSpec("total", "int", required=True)])
        )
        migrations = SchemaMigrationManager(catalog)
        store = LSDBStore()
        migrations.attach_store(store)
        manager = store.enable_checkpoints()
        store.insert("order", "o1", {"total": 1})
        manager.take()
        migrations.apply(
            EntityType.define(
                "order",
                [FieldSpec("total", "int", required=True),
                 FieldSpec("currency", "str")],
                schema_version=2,
            )
        )
        assert manager.latest() is None

    def test_compaction_invalidates_then_retakes(self):
        store = populated_store(40)
        manager = store.enable_checkpoints()  # on_compaction=True default
        manager.take()
        before = manager.latest().lsn
        store.compact(keep_recent=5)
        assert manager.invalidations == 1
        fresh = manager.latest()
        assert fresh is not None and fresh.lsn >= before
        # The live checkpoint never predates the compaction boundary.
        assert fresh.lsn == store.log.head_lsn
        assert store.recover().used_checkpoint

    def test_compaction_without_retake_leaves_no_checkpoint(self):
        store = populated_store(40)
        manager = store.enable_checkpoints(
            CheckpointPolicy(on_compaction=False)
        )
        manager.take()
        store.compact(keep_recent=5)
        assert manager.latest() is None

    @pytest.mark.parametrize("retake", [True, False])
    def test_state_as_of_head_after_compaction(self, retake):
        store = LSDBStore()
        store.enable_checkpoints(
            CheckpointPolicy(every_events=5, on_compaction=retake)
        )
        store.insert("acct", "a", {"bal": 0})
        for _ in range(20):
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        store.compact(keep_recent=3)
        states = store.state_as_of(store.log.head_lsn)
        assert states[("acct", "a")].fields["bal"] == 20

    def test_state_as_of_head_after_migration(self):
        catalog = EntityCatalog()
        catalog.register(
            EntityType.define("order", [FieldSpec("total", "int", required=True)])
        )
        migrations = SchemaMigrationManager(catalog)
        store = LSDBStore()
        migrations.attach_store(store)
        store.enable_checkpoints(CheckpointPolicy(every_events=1))
        store.insert("order", "o1", {"total": 9})
        assert store.checkpoints.latest().lsn == store.log.head_lsn
        migrations.apply(
            EntityType.define(
                "order",
                [FieldSpec("total", "int", required=True),
                 FieldSpec("currency", "str")],
                schema_version=2,
            ),
            upcast=lambda payload: {**payload, "currency": "EUR"},
        )
        expected = {"total": 9, "currency": "EUR"}
        ref = ("order", "o1")
        assert store.state_as_of(store.log.head_lsn)[ref].fields == expected
        store.rebuild_cache()
        store.insert("order", "o2", {"total": 1})  # re-checkpoints the head
        assert store.checkpoints.latest().lsn == store.log.head_lsn
        assert store.state_as_of(store.log.head_lsn)[ref].fields == expected


class TestInstallCheckpoint:
    def test_install_on_empty_store_seeds_state_and_watermarks(self):
        donor = populated_store(30, origin="donor")
        checkpoint = Checkpoint.capture(donor)
        newbie = LSDBStore(origin="newbie")
        newbie.install_checkpoint(checkpoint)
        assert newbie.current_state() == donor.current_state()
        assert (
            newbie.version_vector.to_dict() == donor.version_vector.to_dict()
        )
        # Pre-checkpoint redeliveries are rejected by the watermark.
        old = donor.events_from_origin("donor", 0)[0]
        assert not newbie.apply_remote(old)

    def test_install_refuses_non_empty_store(self):
        donor = populated_store(10)
        checkpoint = Checkpoint.capture(donor)
        target = LSDBStore()
        target.insert("acct", "x", {"bal": 1})
        with pytest.raises(ReproError):
            target.install_checkpoint(checkpoint)

    def test_bootstrap_protocol_ships_checkpoint_plus_delta(self):
        sim = Simulator(seed=21)
        net = Network(sim, latency=2.0)
        policy = BatchPolicy(max_batch=16)
        donor = net.register(ReplicaNode("donor", sim, batching=policy))
        donor.store.enable_checkpoints(CheckpointPolicy(every_events=20))
        donor.store.insert("acct", "a", {"bal": 0})
        for _ in range(39):  # head=40, latest checkpoint at 40
            donor.store.apply_delta("acct", "a", Delta.add("bal", 1))
        for _ in range(5):  # delta beyond the checkpoint
            donor.store.apply_delta("acct", "a", Delta.add("bal", 1))
        newbie = net.register(ReplicaNode("newbie", sim, batching=policy))
        newbie.request_bootstrap("donor")
        sim.run(until=50.0)
        assert newbie.observable_state() == donor.observable_state()
        assert newbie.store.get("acct", "a").fields["bal"] == 44
        # O(delta): the event frames carried only the post-checkpoint
        # suffix, not the 45-event history.
        assert newbie.events_received == 5

    def test_bootstrap_without_checkpoint_manager_uses_adhoc_capture(self):
        sim = Simulator(seed=22)
        net = Network(sim, latency=2.0)
        donor = net.register(ReplicaNode("donor", sim))
        donor.store.insert("acct", "a", {"bal": 7})
        newbie = net.register(ReplicaNode("newbie", sim))
        newbie.request_bootstrap("donor")
        sim.run(until=20.0)
        assert newbie.observable_state() == donor.observable_state()
        assert newbie.events_received == 0  # everything came in the checkpoint
