"""The read path: every read answers from the store's own fold.

Covers the store's deferred fold (an append folds nothing; the read that
needs an entity folds its rows at once), typed store reads (every level
answers ``store.get`` at staleness 0, after a compaction too), the
warehouse rung, and the replicated read path (every scheme's follower
read is the follower's own fold, stamped with its lag).
"""

from __future__ import annotations

import pytest

from repro.core.readpath import ReadRequest
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta


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


class TestDeferredFold:
    """Writes coalesce in the store's deferred fold: an append folds
    nothing, and the read that needs an entity folds its rows at once."""

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


_REQUESTS = {
    "strong": ReadRequest.strong(),
    "bounded": ReadRequest.bounded(5.0),
    "eventual": ReadRequest.eventual(),
}


class TestTypedStoreRead:
    @pytest.mark.parametrize("level", list(_REQUESTS))
    def test_typed_read_sees_its_own_unfolded_writes(self, store, clock, level):
        """Read-your-writes through the typed protocol: the writes are
        still unfolded when the read arrives, and the read folds them."""
        store.insert("acct", "a", {"bal": 10})
        clock.now = 2.0
        store.apply_delta("acct", "a", Delta.add("bal", 5))
        clock.now = 100.0
        assert store.unfolded == 2
        result = store.read("acct", "a", request=_REQUESTS[level])
        assert result.value is store.get("acct", "a")
        assert result.value.fields == {"bal": 15}
        assert result.delivered_level is _REQUESTS[level].level
        assert result.staleness == 0.0 and not result.bound_violated
        assert result.served_by == "hot"

    def test_read_after_compact_is_the_current_fold(self, store, clock):
        """A compaction rewrites history under the entity's head LSN;
        the next typed read still answers the current fold at
        staleness 0."""
        store.insert("acct", "a", {"bal": 10})
        store.read("acct", "a", request=ReadRequest.bounded(50.0))
        clock.now = 2.0
        for _ in range(5):
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        store.compact()  # rewrites the t=2.0 events into one summary
        clock.now = 100.0
        result = store.read("acct", "a", request=ReadRequest.bounded(50.0))
        assert result.value.fields == {"bal": 15}
        assert result.value is store.get("acct", "a")
        assert result.staleness == 0.0 and not result.bound_violated


def _cluster(mode: str = "master_slave", count: int = 3, **warehouse):
    from repro.cluster import Cluster

    builder = Cluster.build(seed=5).with_replicas(count, mode=mode)
    if warehouse:
        builder = builder.with_warehouse(**warehouse).with_front_door()
    return builder.create()


class TestWarehouseRung:
    def test_serves_the_new_extract(self):
        """The door's bottom rung reads the extract's own fold, and a
        new extract is what the next read sees."""
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

    def test_bottom_rung_reads_the_store_before_the_first_extract(self):
        cluster = _cluster(interval=10.0)
        cluster.replication.write_insert("acct", "a", {"bal": 10})
        result = cluster.read("acct", "a", request=ReadRequest.eventual())
        assert result.value is cluster.store.get("acct", "a")
        assert result.served_by == cluster.store.name
        assert result.staleness == 0.0


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
        live state, stamped with exactly its replication lag."""
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

    def test_follower_read_is_never_older_than_the_follower(self):
        """A slave holding ``bal=15`` answers ``bal=15`` at zero lag."""
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

    def test_strong_read_serves_the_master(self):
        cluster = _cluster()
        group = cluster.replication
        group.write_insert("acct", "a", {"bal": 10})
        result = cluster.read("acct", "a", request=ReadRequest.strong())
        assert result.value.fields == {"bal": 10}
        assert result.value is group.master.store.get("acct", "a")
        assert result.staleness == 0.0

    def test_with_read_cache_arms_nothing(self):
        """``with_read_cache`` keeps its signature and builds no cache:
        the cluster reads exactly as one built without it."""
        from repro.cluster import Cluster

        cluster = (
            Cluster.build(seed=5)
            .with_replicas(3, mode="master_slave")
            .with_read_cache(capacity=128, hot_capacity=8, coalesce_window=5.0)
            .create()
        )
        assert cluster.read_caches == []
        nodes = [cluster.replication.master, *cluster.replication.slaves.values()]
        for node in nodes:
            assert node.store.coalescer is None
        cluster.replication.write_insert("acct", "a", {"bal": 10})
        cluster.sim.run(until=100.0)
        result = cluster.read("acct", "a", request=ReadRequest.bounded(50.0))
        assert result.value.fields == {"bal": 10}
