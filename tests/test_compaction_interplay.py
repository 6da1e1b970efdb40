"""Compaction interplay: indexes, checkpoints, warehouse extracts.

Summarization rewrites the log prefix; every consumer that reads the
log by LSN (asynchronous indexes, checkpoint replay, incremental
extracts) must stay correct across a rewrite.  These tests pin that.
"""

from __future__ import annotations

from repro.lsdb.checkpoint import CheckpointPolicy
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.replication.warehouse import WarehouseExtract
from repro.sim.scheduler import Simulator


class TestIndexAcrossCompaction:
    def test_index_ahead_of_compaction_stays_correct(self):
        store = LSDBStore()
        index = store.register_index("order", "status")
        store.insert("order", "o1", {"status": "open"})
        store.insert("order", "o2", {"status": "open"})
        index.refresh()  # index fully caught up
        store.compact(keep_recent=0)
        index.refresh()
        assert index.lookup("open") == {"o1", "o2"}

    def test_index_behind_compaction_catches_up_via_summaries(self):
        store = LSDBStore()
        index = store.register_index("order", "status")
        store.insert("order", "o1", {"status": "open"})
        store.set_fields("order", "o1", {"status": "closed"})
        # Index has applied nothing when the prefix is summarised away.
        store.compact(keep_recent=0)
        index.refresh()
        assert index.lookup("closed") == {"o1"}
        assert index.lookup("open") == set()

    def test_index_mid_stream_during_compaction(self):
        store = LSDBStore()
        index = store.register_index("order", "status")
        store.insert("order", "o1", {"status": "open"})
        index.refresh()
        store.set_fields("order", "o1", {"status": "closed"})
        store.insert("order", "o2", {"status": "open"})
        store.compact(keep_recent=1)
        index.refresh()
        assert index.lookup("closed") == {"o1"}
        assert index.lookup("open") == {"o2"}


class TestSnapshotsAcrossCompaction:
    def test_head_read_correct_after_compaction(self):
        store = LSDBStore()
        store.enable_checkpoints(CheckpointPolicy(every_events=5))
        store.insert("acct", "a", {"bal": 0})
        for _ in range(20):
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        store.compact(keep_recent=3)
        states = store.state_as_of(store.log.head_lsn)
        assert states[("acct", "a")].fields["bal"] == 20

    def test_incremental_cache_matches_scratch_after_compaction(self):
        store = LSDBStore()
        store.insert("acct", "a", {"bal": 0})
        for _ in range(10):
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        store.compact(keep_recent=2)
        for _ in range(5):
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        cached = store.get("acct", "a").fields
        scratch = store.rollup_from_scratch()[("acct", "a")].fields
        assert cached == scratch == {"bal": 15}


class TestWarehouseAcrossCompaction:
    def test_incremental_extract_survives_compaction_between_rounds(self):
        sim = Simulator()
        store = LSDBStore(clock=lambda: sim.now)
        warehouse = WarehouseExtract(sim, store, interval=10.0, incremental=True)
        store.insert("acct", "a", {"bal": 0})
        for _ in range(6):
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        sim.run(until=15.0)  # first extract
        # Compaction rewrites the prefix *above* the extracted LSN
        # boundary semantics: summaries replace raw events.
        for _ in range(4):
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        store.compact(keep_recent=2)
        sim.run(until=25.0)  # incremental round over the rewritten log
        assert warehouse.get("acct", "a").fields["bal"] == 10

    def test_full_extract_mode_trivially_correct(self):
        sim = Simulator()
        store = LSDBStore(clock=lambda: sim.now)
        warehouse = WarehouseExtract(sim, store, interval=10.0, incremental=False)
        store.insert("acct", "a", {"bal": 3})
        store.compact(keep_recent=0)
        sim.run(until=15.0)
        assert warehouse.get("acct", "a").fields["bal"] == 3


class TestCheckpointsAcrossCompaction:
    def test_compact_then_checkpoint_restore_is_byte_identical(self):
        """Fixed-seed round-trip: compact(keep_recent>0), checkpoint,
        tear the caches down, restore — states and secondary indexes
        must come back byte-identical (PR 5 satellite)."""
        from repro.lsdb.checkpoint import CheckpointPolicy
        from repro.sim.rng import SeededRNG

        rng = SeededRNG(17)
        store = LSDBStore()
        store.enable_checkpoints(CheckpointPolicy(every_events=25))
        index = store.register_index("acct", "tier")
        tiers = ("gold", "silver")
        for key in ("a", "b", "c"):
            store.insert(
                "acct", key, {"bal": 0, "tier": tiers[rng.randint(0, 1)]}
            )
        for _ in range(80):
            key = ("a", "b", "c")[rng.randint(0, 2)]
            store.apply_delta("acct", key, Delta.add("bal", rng.randint(1, 5)))
        index.refresh()
        store.compact(keep_recent=10)  # invalidates + re-takes at the head
        for _ in range(7):  # post-compaction, post-checkpoint delta
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        index.refresh()

        live_states = {
            ref: state.copy() for ref, state in store.current_state().items()
        }
        live_buckets = {
            tier: set(index.lookup(tier)) for tier in ("gold", "silver")
        }
        report = store.recover()
        assert report.used_checkpoint
        assert report.events_replayed == 7
        assert store.current_state() == live_states
        assert {
            tier: set(index.lookup(tier)) for tier in ("gold", "silver")
        } == live_buckets
        # And the restored fields equal a from-scratch fold of the
        # (compacted) log.  Only fields: the checkpoint preserves the
        # true cumulative event_count across compaction, which a fold
        # over summaries cannot reconstruct.
        scratch = store.rollup_from_scratch()
        assert {
            ref: state.fields for ref, state in store.current_state().items()
        } == {ref: state.fields for ref, state in scratch.items()}


class TestColumnarAcrossCompaction:
    def test_slice_feeds_match_materialized_after_compaction(self):
        """Every slice feed agrees with a brute-force scan of the live
        (summaries + suffix) events after a prefix rewrite."""
        store = LSDBStore()
        for index in range(3):
            store.insert("acct", f"k{index}", {"bal": 0})
        for index in range(40):
            store.apply_delta("acct", f"k{index % 3}", Delta.add("bal", 1))
        store.compact(keep_recent=5)
        log = store.log
        live = list(log.events())
        head = log.head_lsn
        for lsn in range(head + 2):
            assert list(log.since(lsn)) == [e for e in live if e.lsn > lsn]
            assert list(log.iter_since(lsn)) == list(log.since(lsn))
        for index in range(3):
            key = f"k{index}"
            assert list(log.for_entity("acct", key)) == [
                e for e in live if e.entity_key == key
            ]
        assert list(log.for_type_since("acct", 0, head)) == live

    def test_per_origin_raw_events_survive_compaction(self):
        """The per-origin feed serves the *raw* remote events after the
        live prefix is summarised away — the immortal arena keeps the
        rows replication's anti-entropy repairs need."""
        from repro.lsdb.events import EventKind, LogEvent

        store = LSDBStore()
        originals = []
        for seq in range(1, 9):
            event = LogEvent(
                lsn=0,
                timestamp=float(seq),
                entity_type="acct",
                entity_key="a",
                kind=EventKind.DELTA,
                payload=Delta.add("bal", 1).to_payload(),
                origin="r1",
                origin_seq=seq,
            )
            assert store.apply_remote(event)
            originals.append(event.with_lsn(seq))
        store.compact(keep_recent=0)
        assert all(e.kind is EventKind.SUMMARY for e in store.log.events())
        served = list(store.events_from_origin("r1", 0))
        assert served == originals
        assert [e.origin_seq for e in store.events_from_origin("r1", 5)] == [
            6, 7, 8,
        ]
