"""The skew-aware hot path: the watermark-validated read cache.

Covers the cache primitive (hit/miss/watermark validation), bounded
stale serving (honest measured staleness, never beyond the budget), the
space-saving hot-set tracker and its LRU pinning, the store's deferred
fold that coalesces a burst of writes into the read that needs it, structural
invalidation (compaction, checkpoint install, recover, reducer change
— the regression this PR exists to prevent), and the
replicated read path that bypasses the cache (every scheme's follower
read, the warehouse rung, the cluster builder's wiring).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import ConsistencyUnavailable, ReadRequest
from repro.lsdb.readcache import HotSetTracker, ReadCache
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.obs.metrics import MetricsRegistry


class Clock:
    """A hand-advanced virtual clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock() -> Clock:
    return Clock()


@pytest.fixture
def store(clock: Clock) -> LSDBStore:
    return LSDBStore(name="hot", origin="hot", clock=clock)


@pytest.fixture
def cache(store: LSDBStore) -> ReadCache:
    return ReadCache.over_store(store)


class TestHotSetTracker:
    def test_tracks_up_to_capacity(self):
        tracker = HotSetTracker(capacity=2)
        tracker.touch(("t", "a"))
        tracker.touch(("t", "b"))
        assert tracker.is_hot(("t", "a")) and tracker.is_hot(("t", "b"))
        assert len(tracker) == 2

    def test_untracked_key_evicts_minimum_and_inherits_count(self):
        tracker = HotSetTracker(capacity=2)
        for _ in range(5):
            tracker.touch(("t", "hot"))
        tracker.touch(("t", "warm"))
        tracker.touch(("t", "new"))  # evicts warm (count 1), inherits 2
        assert tracker.is_hot(("t", "hot"))
        assert tracker.is_hot(("t", "new"))
        assert not tracker.is_hot(("t", "warm"))

    def test_truly_hot_key_survives_churn(self):
        # Space-saving guarantee: a key with frequency > n/capacity is
        # always tracked, no matter how many cold keys churn past.
        tracker = HotSetTracker(capacity=4)
        for index in range(200):
            tracker.touch(("t", "hot"))
            tracker.touch(("t", f"cold-{index}"))
        assert tracker.is_hot(("t", "hot"))
        assert tracker.hot_keys()[0] == ("t", "hot")

    def test_deterministic_tie_break(self):
        a, b = HotSetTracker(capacity=2), HotSetTracker(capacity=2)
        keys = [("t", "x"), ("t", "y"), ("t", "z"), ("t", "x")]
        for key in keys:
            a.touch(key)
            b.touch(key)
        assert a.hot_keys() == b.hot_keys()

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            HotSetTracker(capacity=0)

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=6),
        touches=st.lists(st.integers(min_value=0, max_value=11), max_size=120),
    )
    def test_victim_choice_equals_the_item_scan(self, capacity, touches):
        """``touch`` finds its victim without a Python callback per
        tracked key; the scan it replaced is the reference.  Few keys
        and small capacities make count ties the common case, and the
        comparison includes dict *order* (the tie-break) after every
        touch."""
        tracker = HotSetTracker(capacity=capacity)
        model: dict[tuple[str, str], int] = {}
        for number in touches:
            key = ("t", f"k{number}")
            tracker.touch(key)
            if key in model:
                model[key] += 1
            elif len(model) < capacity:
                model[key] = 1
            else:
                victim, floor = min(model.items(), key=lambda item: item[1])
                del model[victim]
                model[key] = floor + 1
            assert list(tracker._counts.items()) == list(model.items())


class TestReadCachePrimitive:
    def test_miss_then_watermark_current_hit(self, store, cache):
        store.insert("acct", "a", {"bal": 10})
        state, age = cache.lookup("acct", "a")
        assert state.fields == {"bal": 10} and age == 0.0
        assert cache.stats()["misses"] == 1
        state, age = cache.lookup("acct", "a")
        assert state.fields == {"bal": 10} and age == 0.0
        assert cache.stats()["hits"] == 1

    def test_hit_does_not_touch_live_state_map(self, store, cache):
        store.insert("acct", "a", {"bal": 10})
        cache.lookup("acct", "a")
        fetched = []
        original = store.get
        store.__dict__["get"] = lambda *ref: fetched.append(ref) or original(*ref)
        try:
            cache.lookup("acct", "a")
        finally:
            store.__dict__.pop("get")
        assert fetched == []  # the hit never called the store

    def test_cached_state_is_frozen_copy(self, store, cache):
        store.insert("acct", "a", {"bal": 10})
        state, _ = cache.lookup("acct", "a")
        live = store.get("acct", "a")
        assert state is not live
        assert state.fields == live.fields

    def test_negative_entry_for_absent_entity(self, store, cache):
        state, _ = cache.lookup("acct", "ghost")
        assert state is None
        state, _ = cache.lookup("acct", "ghost")
        assert state is None and cache.stats()["hits"] == 1
        # A write to the entity moves its watermark: a revalidating
        # lookup refuses the negative entry and refreshes.
        store.insert("acct", "ghost", {"bal": 1})
        state, _ = cache.lookup("acct", "ghost", revalidate=True)
        assert state is not None and state.fields == {"bal": 1}

    def test_write_invalidate_via_watermark(self, store, cache, clock):
        store.insert("acct", "a", {"bal": 10})
        cache.lookup("acct", "a")
        store.apply_delta("acct", "a", Delta.add("bal", 5))
        # Watermark moved; a revalidating lookup refreshes to current.
        state, age = cache.lookup("acct", "a", revalidate=True)
        assert state.fields == {"bal": 15} and age == 0.0

    def test_stale_serve_within_budget_stamps_honest_age(
        self, store, cache, clock
    ):
        store.insert("acct", "a", {"bal": 10})
        cache.lookup("acct", "a")
        clock.now = 2.0
        store.apply_delta("acct", "a", Delta.add("bal", 5))
        clock.now = 3.0
        state, age = cache.lookup("acct", "a", budget=5.0)
        assert state.fields == {"bal": 10}  # the old fold, honestly aged
        assert age == pytest.approx(1.0)  # first missed event is 1.0 old

    def test_never_serves_beyond_budget(self, store, cache, clock):
        store.insert("acct", "a", {"bal": 10})
        cache.lookup("acct", "a")
        clock.now = 2.0
        store.apply_delta("acct", "a", Delta.add("bal", 5))
        clock.now = 50.0  # missed event is now 48.0 old
        state, age = cache.lookup("acct", "a", budget=5.0)
        assert state.fields == {"bal": 15}  # refreshed, not served stale
        assert age == 0.0

    def test_revalidate_refuses_stale_entries(self, store, cache):
        store.insert("acct", "a", {"bal": 10})
        cache.lookup("acct", "a")
        store.apply_delta("acct", "a", Delta.add("bal", 5))
        state, age = cache.lookup("acct", "a", revalidate=True)
        assert state.fields == {"bal": 15} and age == 0.0

    def test_lru_eviction_bounded(self, store):
        cache = ReadCache.over_store(store, capacity=2, hot_capacity=1)
        for key in ("a", "b", "c"):
            store.insert("acct", key, {"bal": 1})
        cache.lookup("acct", "a")
        cache.lookup("acct", "b")
        cache.lookup("acct", "c")
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1

    def test_hot_entries_pinned_against_eviction(self, store):
        cache = ReadCache.over_store(store, capacity=2, hot_capacity=2)
        for key in ("hot", "b", "c", "d"):
            store.insert("acct", key, {"bal": 1})
        for _ in range(5):
            cache.lookup("acct", "hot")  # clearly the hottest
        cache.lookup("acct", "b")
        cache.lookup("acct", "c")  # evicts b (hot is pinned), not hot
        cache.lookup("acct", "d")  # evicts c
        assert ("acct", "hot") in cache
        assert ("acct", "b") not in cache

    def test_metrics_mirror_counters(self, clock):
        metrics = MetricsRegistry()
        store = LSDBStore(name="m", origin="m", clock=clock, metrics=metrics)
        cache = ReadCache.over_store(store, metrics=metrics)
        store.insert("acct", "a", {"bal": 1})
        cache.lookup("acct", "a")
        cache.lookup("acct", "a")
        assert metrics.counter("cache.misses", cache="m-cache").value == 1
        assert metrics.counter("cache.hits", cache="m-cache").value == 1
        assert metrics.gauge("cache.hot_keys", cache="m-cache").value == 1


class TestTypedReadsThroughCache:
    def test_strong_always_revalidates(self, store, cache):
        store.insert("acct", "a", {"bal": 10})
        store.read("acct", "a", request=ReadRequest.strong())
        store.apply_delta("acct", "a", Delta.add("bal", 5))
        result = store.read("acct", "a", request=ReadRequest.strong())
        assert result.value.fields == {"bal": 15}
        assert result.staleness == 0.0
        assert result.served_by == "hot+cache"

    def test_bounded_serves_stale_within_bound(self, store, cache, clock):
        store.insert("acct", "a", {"bal": 10})
        store.read("acct", "a", request=ReadRequest.bounded(5.0))
        clock.now = 2.0
        store.apply_delta("acct", "a", Delta.add("bal", 5))
        clock.now = 3.0
        result = store.read("acct", "a", request=ReadRequest.bounded(5.0))
        assert result.value.fields == {"bal": 10}
        assert result.staleness == pytest.approx(1.0)
        assert not result.bound_violated

    def test_bounded_never_violates_its_bound(self, store, cache, clock):
        store.insert("acct", "a", {"bal": 10})
        store.read("acct", "a", request=ReadRequest.bounded(5.0))
        clock.now = 2.0
        store.apply_delta("acct", "a", Delta.add("bal", 5))
        clock.now = 100.0
        result = store.read("acct", "a", request=ReadRequest.bounded(5.0))
        assert result.value.fields == {"bal": 15}
        assert result.staleness == 0.0 and not result.bound_violated

    def test_default_request_is_strong_not_an_unstamped_stale_hit(
        self, store, cache
    ):
        store.insert("acct", "a", {"bal": 1})
        store.read("acct", "a")  # fill
        store.apply_delta("acct", "a", Delta.add("bal", 10))
        result = store.read("acct", "a")
        assert result.fields == store.get("acct", "a").fields == {"bal": 11}
        assert result.delivered_level is ConsistencyLevel.STRONG
        assert result.staleness == 0.0

    def test_eventual_serves_any_age_honestly(self, store, cache, clock):
        store.insert("acct", "a", {"bal": 10})
        store.read("acct", "a", request=ReadRequest.eventual())
        clock.now = 10.0
        store.apply_delta("acct", "a", Delta.add("bal", 5))
        clock.now = 500.0
        result = store.read("acct", "a", request=ReadRequest.eventual())
        assert result.value.fields == {"bal": 10}
        assert result.staleness == pytest.approx(490.0)


class TestStructuralInvalidation:
    def test_compaction_drops_every_entry(self, store, cache):
        """Compaction reuses the last summarised LSN, so the
        post-compaction head can equal a cached watermark while the
        history below it was rewritten — watermark comparison alone is
        no longer sound.  The structure hook drops everything."""
        for _ in range(10):
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        cache.lookup("acct", "a")
        cache.lookup("acct", "b")  # negative entry
        assert len(cache) == 2
        store.compact()
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 2
        state, age = cache.lookup("acct", "a")
        assert state.fields == {"bal": 10} and age == 0.0

    def test_post_compaction_read_never_serves_pre_compaction_fold(
        self, store, cache, clock
    ):
        """THE regression (satellite fix): a behind-watermark entry's
        age is measured from the first event past its watermark —
        timestamps that ``rewrite_prefix`` destroys.  Pre-compaction
        history: fold cached at t=0, missed events at t=2 — the stale
        fold is 98.0 old at t=100 and must NOT satisfy a 50.0 bound.
        Post-compaction the summary event carries the *newest*
        timestamp, so without invalidation the same entry would measure
        young enough to serve.  The hook forces a refresh instead."""
        store.insert("acct", "a", {"bal": 10})
        store.read("acct", "a", request=ReadRequest.bounded(50.0))  # fill
        clock.now = 2.0
        for _ in range(5):
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        store.compact()  # rewrites the t=2.0 events into one summary
        clock.now = 100.0
        result = store.read("acct", "a", request=ReadRequest.bounded(50.0))
        assert result.value.fields == {"bal": 15}  # current, not cached
        assert result.staleness == 0.0
        assert not result.bound_violated

    def test_recover_invalidates(self, store, cache):
        store.insert("acct", "a", {"bal": 10})
        cache.lookup("acct", "a")
        store.recover()
        assert len(cache) == 0

    def test_register_reducer_invalidates(self, store, cache):
        from repro.lsdb.rollup import GenericReducer

        store.insert("acct", "a", {"bal": 10})
        cache.lookup("acct", "a")
        store.register_reducer("acct", GenericReducer())
        assert len(cache) == 0

    def test_install_checkpoint_drops_negative_entries(self, clock):
        donor = LSDBStore(name="donor", origin="donor", clock=clock)
        donor.insert("acct", "a", {"bal": 10})
        checkpoint = donor.enable_checkpoints().take()
        joiner = LSDBStore(name="joiner", origin="joiner", clock=clock)
        cache = ReadCache.over_store(joiner)
        state, _ = cache.lookup("acct", "a")
        assert state is None  # cached negative entry
        joiner.install_checkpoint(checkpoint)
        state, _ = cache.lookup("acct", "a")
        assert state is not None and state.fields == {"bal": 10}


class TestWriteCoalescer:
    """Writes coalesce in the store's deferred fold: an append folds
    nothing, and the read that needs an entity folds its rows at once.
    (The class keeps the name of the store-wide write coalescer that
    this fold replaced; the behaviour it checks is the deferred fold's.)"""

    def test_burst_fuses_into_one_fold(self, store):
        calls = []
        fold = store.rollup.fold_slice_into

        def counting(states, view, *args, **kwargs):
            calls.append(len(view))
            return fold(states, view, *args, **kwargs)

        store.rollup.fold_slice_into = counting
        for _ in range(10):
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        assert calls == [] and store.unfolded == 10
        assert store.get("acct", "a").fields == {"bal": 10}
        assert calls == [10]
        assert store.unfolded == 0

    def test_read_your_writes_via_read_barrier(self, store):
        store.apply_delta("acct", "a", Delta.add("bal", 7))
        store.apply_delta("acct", "b", Delta.add("bal", 1))
        assert store.get("acct", "a").fields == {"bal": 7}
        # The read folded its own entity's row and left the other's.
        assert store.unfolded == 1
        assert store.get("acct", "b").fields == {"bal": 1}
        assert store.unfolded == 0

    def test_log_and_feeds_stay_immediate(self, store):
        store.apply_delta("acct", "a", Delta.add("bal", 1))
        assert store.log.head_lsn == 1  # append not deferred
        assert store.version_vector.get("hot") == 1
        assert len(store.events_from_origin("hot", 0)) == 1
        assert store.unfolded == 1  # only the fold is


def _cluster(mode: str = "master_slave", count: int = 3, **warehouse):
    from repro.cluster import Cluster

    builder = Cluster.build(seed=5).with_replicas(count, mode=mode)
    if warehouse:
        builder = builder.with_warehouse(**warehouse).with_front_door()
    return builder.with_read_cache(coalesce_window=2.0).create()


def _lookups(cluster) -> int:
    return sum(cache.hits + cache.misses for cache in cluster.read_caches)


class TestWarehouseRung:
    def test_serves_the_new_extract(self):
        """The door's bottom rung reads the extract's own fold, and a
        new extract is what the next read sees — no cache in between."""
        cluster = _cluster(interval=10.0)
        warehouse = cluster.warehouse
        eventual = ReadRequest.eventual()
        cluster.replication.write_insert("acct", "a", {"bal": 10})
        cluster.sim.run(until=15.0)  # first extract lands
        result = cluster.read("acct", "a", request=eventual)
        assert result.value.fields == {"bal": 10}
        assert result.value is warehouse.get("acct", "a")
        assert result.served_by == "warehouse" and result.staleness == 0.0
        cluster.replication.write_delta("acct", "a", Delta.add("bal", 5))
        cluster.sim.run(until=17.0)  # still the first extract, stamped
        result = cluster.read("acct", "a", request=eventual)
        assert result.value.fields == {"bal": 10} and result.staleness == 7.0
        cluster.sim.run(until=25.0)  # second extract
        result = cluster.read("acct", "a", request=eventual)
        assert result.value.fields == {"bal": 15} and result.staleness == 0.0
        assert _lookups(cluster) == 0

    def test_bottom_rung_reads_the_store_before_the_first_extract(self):
        cluster = _cluster(interval=10.0)
        cluster.replication.write_insert("acct", "a", {"bal": 10})
        result = cluster.read("acct", "a", request=ReadRequest.eventual())
        assert result.value is cluster.store.get("acct", "a")
        assert result.served_by == cluster.store.name
        assert result.staleness == 0.0
        assert _lookups(cluster) == 0


#: How each scheme writes one entity; active/active writes away from the
#: replica that serves, so the served copy has something to lag behind.
_WRITERS = {
    "master_slave": lambda scheme, key, fields: scheme.write_insert(
        "acct", key, fields
    ),
    "sync": lambda scheme, key, fields: scheme.write_insert("acct", key, fields),
    "active_active": lambda scheme, key, fields: scheme.write_insert(
        list(scheme.replicas)[-1], "acct", key, fields
    ),
    "quorum": lambda scheme, key, fields: scheme.write("acct", key, fields),
}


class TestReplicatedReadPath:
    @pytest.mark.parametrize(
        "mode, count",
        [("master_slave", 2), ("sync", 2), ("active_active", 3), ("quorum", 3)],
    )
    def test_follower_read_is_the_followers_own_fold(self, mode, count):
        """A BOUNDED read that picks a replica copy returns that copy's
        live state, stamped with exactly its replication lag, and never
        asks a cache."""
        from repro.replication.replica import lag_behind_peers, staleness_behind

        cluster = _cluster(mode, count)
        scheme = cluster.replication
        _WRITERS[mode](scheme, "a", {"bal": 10})
        cluster.sim.run(until=100.0)
        _WRITERS[mode](scheme, "b", {"bal": 1})
        cluster.sim.run(until=100.5)  # the follower lags the second write

        result = cluster.read("acct", "a", request=ReadRequest.bounded(1000.0))

        if mode in ("master_slave", "sync"):
            authority, follower = scheme._read_nodes()
            lag = staleness_behind(authority, follower)
        else:
            members = scheme.replicas
            if isinstance(members, dict):
                members = list(members.values())
            follower = members[0]
            lag = lag_behind_peers(follower, members)
        assert result.served_by == follower.node_id
        assert result.value is follower.store.get("acct", "a")
        assert result.value.fields == {"bal": 10}
        assert result.staleness == lag > 0.0
        assert _lookups(cluster) == 0

    def test_follower_read_is_never_older_than_the_follower(self):
        """A slave holding ``bal=15`` answers ``bal=15`` at zero lag; a
        cached ``bal=10`` stamped with its age was staler than the copy
        it came from."""
        cluster = _cluster()
        group = cluster.replication
        bounded = ReadRequest.bounded(50.0)
        group.write_insert("acct", "a", {"bal": 10})
        cluster.sim.run(until=100.0)
        assert cluster.read("acct", "a", request=bounded).value.fields == {"bal": 10}
        group.write_delta("acct", "a", Delta.add("bal", 5))
        cluster.sim.run(until=130.0)  # shipped: the slave holds bal=15
        result = cluster.read("acct", "a", request=bounded)
        assert result.value.fields == {"bal": 15}
        assert result.staleness == 0.0 and not result.bound_violated

    def test_strong_reads_unaffected_by_cache(self):
        from repro.cluster import Cluster

        cluster = (
            Cluster.build(seed=5)
            .with_replicas(3, mode="master_slave")
            .with_read_cache()
            .create()
        )
        group = cluster.replication
        group.write_insert("acct", "a", {"bal": 10})
        result = cluster.read("acct", "a", request=ReadRequest.strong())
        assert result.value.fields == {"bal": 10}
        assert result.staleness == 0.0

    def test_builder_wires_every_store_and_no_warehouse(self):
        cluster = _cluster(interval=50.0)
        # master + 2 slaves; the warehouse reads its extract directly
        assert len(cluster.read_caches) == 3
        assert cluster.read_cache is cluster.store.read_cache
        assert not hasattr(cluster.warehouse, "read_cache")
        nodes = [cluster.replication.master, *cluster.replication.slaves.values()]
        assert [node.store.read_cache for node in nodes] == cluster.read_caches
        # ``coalesce_window`` is accepted and arms nothing: no store
        # coalesces its writes.
        for node in nodes:
            assert node.store.coalescer is None
