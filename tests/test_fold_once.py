"""Fold exactly once: an efficiency invariant on the store's state map.

The sibling of ``test_ship_once.py`` on the ingest side.  Every row a
store appends — a local write, a frame from a peer, a single remote
event drained from the reorder buffer — must be folded into the
incremental cache exactly once, coalesced or not, and a rebuild must
re-fold the live log exactly once.  Three exact checks say so:

* the states' ``event_count`` sums to the log's length (a double fold
  or a dropped coalesced row moves it);
* the states equal ``rollup_from_scratch()`` — same values, same key
  order — and ``type_refs`` lists every entity in first-event order;
* the ``store.folds`` metric equals the rows appended, less the queued
  rows a rebuild discards because it re-folds them from the log.

The same checks then run on sustained-write clusters built the way the
end-to-end ladder builds them, where the rows are also counted as they
pass through ``rollup.fold_slice_into`` into each store's state map —
shadowed on the instance, which only works because the store looks the
fold up per call.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.core.readpath import ReadRequest
from repro.lsdb.columnar import ColumnFrame
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.obs.metrics import MetricsRegistry

KEYS = 5
BOUNDED = ReadRequest.bounded(20.0)


def assert_state_is_one_fold_of_the_log(store: LSDBStore) -> None:
    states = store.states_view()
    scratch = store.rollup_from_scratch()
    assert sum(state.event_count for state in states.values()) == len(store.log)
    assert list(states) == list(scratch)
    assert states == scratch
    first_seen: dict = {}
    for ref in scratch:
        first_seen.setdefault(ref[0], []).append(ref)
    assert store.type_refs_view() == first_seen


def assert_folded_once(store: LSDBStore, metrics: MetricsRegistry, discarded: int = 0):
    assert_state_is_one_fold_of_the_log(store)
    appended = metrics.value("store.appends", origin=store.origin)
    assert appended == len(store.log)
    assert metrics.value("store.folds", origin=store.origin) == appended - discarded


# ---------------------------------------------------------------------- #
# One store, every ingest path, rebuilds in between
# ---------------------------------------------------------------------- #


class Scenario:
    """The store under test, fed by its own writes, by frames from one
    peer and by single events from another."""

    def __init__(self, coalesce: bool):
        self.now = 0.0
        self.metrics = MetricsRegistry()
        self.store = LSDBStore(
            "local", origin="local", clock=lambda: self.now, metrics=self.metrics
        )
        if coalesce:
            self.store.enable_coalescing(window=3.0, max_batch=4)
        self.store.enable_checkpoints()
        self.framed = LSDBStore("r2", origin="r2")
        self.single = LSDBStore("r3", origin="r3")
        self.discarded = 0

    def local(self, key: int, kind: str) -> None:
        store = self.store
        if kind == "insert":
            store.insert("acct", f"k{key}", {"owner": key})
        elif kind == "set":
            store.set_fields("item", f"k{key}", {"colour": key})
        else:
            store.apply_delta("acct", f"k{key}", Delta.add("bal", key + 1))

    def frame(self, count: int) -> None:
        sent = self.framed.log.head_lsn
        for index in range(count):
            self.framed.apply_delta("acct", f"k{index % KEYS}", Delta.add("bal", 1))
        frame = ColumnFrame.from_slice(self.framed.events_since(sent))
        assert self.store.apply_remote_frame(frame) == count

    def remote(self, count: int, reverse: bool) -> None:
        sent = self.single.log.head_lsn
        for index in range(count):
            self.single.insert("item", f"k{index % KEYS}", {"size": index})
        events = list(self.single.events_since(sent))
        if reverse:  # all but the oldest wait in the reorder buffer
            events.reverse()
        for event in events:
            self.store.apply_remote(event)
        assert not self.store._reorder_buffer

    def rebuild(self, full: bool) -> None:
        coalescer = self.store.coalescer
        if coalescer is not None:
            self.discarded += coalescer.pending
        self.store.rebuild_cache(full=full)

    def run(self, op) -> None:
        name, *args = op
        if name == "tick":
            self.now += args[0]
        elif name == "checkpoint":
            self.store.checkpoints.take()
        elif name == "read":
            self.store.get("acct", f"k{args[0]}")
        else:
            getattr(self, name)(*args)


keys = st.integers(min_value=0, max_value=KEYS - 1)
operations = st.one_of(
    st.tuples(st.just("local"), keys, st.sampled_from(["insert", "delta", "set"])),
    st.tuples(st.just("frame"), st.integers(min_value=1, max_value=6)),
    st.tuples(st.just("remote"), st.integers(min_value=1, max_value=4), st.booleans()),
    st.tuples(st.just("rebuild"), st.booleans()),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("read"), keys),
    st.tuples(st.just("tick"), st.sampled_from([0.5, 4.0])),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(operations, max_size=40), coalesce=st.booleans())
def test_every_ingest_path_folds_each_row_once(ops, coalesce):
    scenario = Scenario(coalesce)
    for op in ops:
        scenario.run(op)
    assert_folded_once(scenario.store, scenario.metrics, scenario.discarded)


@pytest.mark.parametrize("coalesce", [False, True], ids=["plain", "coalesced"])
def test_rebuilds_with_and_without_a_checkpoint_between_appends(coalesce):
    scenario = Scenario(coalesce)
    script = [
        ("local", 0, "insert"), ("local", 1, "delta"), ("frame", 5),
        ("checkpoint",), ("local", 0, "delta"), ("remote", 4, True),
        ("rebuild", False), ("local", 2, "set"), ("frame", 3),
        ("rebuild", True), ("local", 1, "delta"), ("remote", 3, False),
        ("tick", 4.0), ("local", 3, "delta"), ("rebuild", False),
    ]
    for op in script:
        scenario.run(op)
    assert scenario.store.log.head_lsn == 21
    # With coalescing on, each rebuild found rows still queued.
    assert (scenario.discarded > 0) == coalesce
    assert_folded_once(scenario.store, scenario.metrics, scenario.discarded)


# ---------------------------------------------------------------------- #
# Sustained writes on the ladder's cluster shapes
# ---------------------------------------------------------------------- #


def ladder_builder(seed: int, traced: bool):
    builder = (
        Cluster.build(seed=seed)
        .with_network(latency=2.0)
        .with_batching(max_batch=64)
        .with_read_cache(capacity=64, hot_capacity=8, coalesce_window=2.0)
    )
    return builder.with_tracing() if traced else builder


def master_slave_cluster(seed: int, traced: bool):
    return (
        ladder_builder(seed, traced)
        .with_replicas(3, mode="master_slave", ship_interval=10.0)
        .with_warehouse(interval=100.0)
        .with_transactions()
        .with_front_door()
        .create()
    )


def geo_cluster(seed: int, traced: bool):
    return (
        ladder_builder(seed, traced)
        .with_topology(("us", "eu", "ap"), wan_latency=30.0)
        .with_placement(replicas=2, shards=16, ship_interval=10.0)
        .with_front_door(site="us")
        .create()
    )


def replica_nodes(group):
    if hasattr(group, "replica_list"):
        return group.replica_list()
    return [group.master, *group.slaves.values()]


def count_state_folds(store: LSDBStore, counts: dict) -> None:
    """Shadow ``store.rollup.fold_slice_into`` on the instance, adding up
    the rows folded into the store's own state map."""
    original = store.rollup.fold_slice_into
    counts[store.origin] = 0

    def counting(states, view, *args, **kwargs):
        if states is store._states:
            counts[store.origin] += len(view)
        return original(states, view, *args, **kwargs)

    store.rollup.fold_slice_into = counting


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "build", [master_slave_cluster, geo_cluster], ids=["master_slave", "geo_2of3"]
)
def test_sustained_writes_fold_each_row_once_on_every_replica(build, traced):
    cluster = build(seed=3, traced=traced)
    nodes = replica_nodes(cluster.replication)
    assert len({node.store.origin for node in nodes}) == len(nodes)
    folded: dict = {}
    for node in nodes:
        count_state_folds(node.store, folded)
    writes = 1_500

    def write(index: int) -> None:
        key = f"k{(index * 7) % 60 if index % 4 else index % 3}"
        if cluster.transactions is None:
            cluster.replication.write_delta("entity", key, Delta.add("n", 1))
            return
        tx = cluster.transactions.begin()
        tx.apply_delta("entity", key, Delta.add("n", 1))
        tx.commit()

    def read(index: int) -> None:
        cluster.read("entity", f"k{index % 5}", request=BOUNDED)

    for index in range(writes):
        at = 0.1 * index
        cluster.sim.schedule_at(at, lambda i=index: write(i), label="w")
        cluster.sim.schedule_at(at + 0.05, lambda i=index: read(i), label="r")
    cluster.sim.run(until=0.1 * writes + 200.0)

    # Local writes were coalesced (followers only ingest frames, which
    # fold at once).
    assert any(node.store.coalescer.flushes for node in nodes)
    rows = 0
    for node in nodes:
        store = node.store
        assert_state_is_one_fold_of_the_log(store)
        assert folded[store.origin] == len(store.log)
        if traced:
            assert_folded_once(store, cluster.metrics)
        rows += len(store.log)
    # Every write reached every copy that holds its entity, once.
    copies = 3 if cluster.placement is None else 2
    assert rows == writes * copies
