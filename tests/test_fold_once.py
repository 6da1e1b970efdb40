"""Fold exactly once: an efficiency invariant on the store's state map.

The sibling of ``test_ship_once.py`` on the ingest side.  Every row a
store appends — a local write, a frame from a peer, a single remote
event drained from the reorder buffer — must be folded into the
incremental cache exactly once, whether a read of its entity, a
whole-map reader or a frame apply gets to it first, and a rebuild must
re-fold the live log exactly once.  Three exact checks say so:

* the states' ``event_count`` sums to the log's length (a double fold
  or a dropped unfolded row moves it);
* the states equal ``rollup_from_scratch()`` — same values, same key
  order — and ``type_refs`` lists every entity in first-event order;
* the ``store.folds`` metric equals the rows appended, less the
  unfolded rows a rebuild drops because it re-folds them from the log
  (``store.unfolded`` just before it).

The same checks then run on sustained-write clusters built the way the
end-to-end ladder builds them, where the rows are also counted as they
pass through ``rollup.fold_slice_into`` into each store's state map —
shadowed on the instance, which only works because the store looks the
fold up per call.

A row is folded when something needs it: a read of its entity folds
that entity's rows only, a whole-map reader or a frame apply folds the
rest in row order, and a ship round folds what its shipper appended.
Two more checks pin that:

* after every step of a generated history, the state map and each
  type's ``entities_of_type`` order equal those of a store that folds
  every row the moment it is appended;
* after a master/slave or geo ship round, the shipping node holds no
  unfolded row.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import example, given, settings
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

    def __init__(self):
        self.now = 0.0
        self.metrics = MetricsRegistry()
        self.store = LSDBStore(
            "local", origin="local", clock=lambda: self.now, metrics=self.metrics
        )
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
        self.discarded += self.store.unfolded
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
@given(ops=st.lists(operations, max_size=40))
def test_every_ingest_path_folds_each_row_once(ops):
    scenario = Scenario()
    for op in ops:
        scenario.run(op)
    assert_folded_once(scenario.store, scenario.metrics, scenario.discarded)


@pytest.mark.parametrize("deferred", [False, True], ids=["plain", "coalesced"])
def test_rebuilds_with_and_without_a_checkpoint_between_appends(deferred):
    """Deferred (the ``coalesced`` id, kept from the store-wide write
    coalescer this fold replaced), the appends wait unfolded until a
    rebuild drops them; plain, a whole-map reader folds them before each
    rebuild."""
    scenario = Scenario()
    script = [
        ("local", 0, "insert"), ("local", 1, "delta"), ("frame", 5),
        ("checkpoint",), ("local", 0, "delta"), ("remote", 4, True),
        ("rebuild", False), ("local", 2, "set"), ("frame", 3),
        ("rebuild", True), ("local", 1, "delta"), ("remote", 3, False),
        ("tick", 4.0), ("local", 3, "delta"), ("rebuild", False),
    ]
    for op in script:
        if op[0] == "rebuild" and not deferred:
            scenario.store.states_view()
            assert scenario.store.unfolded == 0
        scenario.run(op)
    assert scenario.store.log.head_lsn == 21
    # Only deferred, each rebuild found rows still unfolded.
    assert (scenario.discarded > 0) == deferred
    assert_folded_once(scenario.store, scenario.metrics, scenario.discarded)


# ---------------------------------------------------------------------- #
# Folding on demand: what a read, a whole-map reader and a rebuild fold
# ---------------------------------------------------------------------- #


class TestFoldOnDemand:
    def test_a_read_of_a_new_entity_keeps_first_event_order(self):
        store = LSDBStore(origin="o")
        for key in ("k0", "k1", "k2"):
            store.insert("acct", key, {"owner": key})
        store.insert("item", "i0", {"size": 1})
        store.get("acct", "k2")  # folded ahead of k0 and k1
        store.get("item", "i0")
        assert [s.entity_key for s in store.entities_of_type("acct")] == [
            "k0", "k1", "k2"
        ]
        assert [s.entity_key for s in store.entities_of_type("item")] == ["i0"]
        assert list(store.states_view()) == list(store.rollup_from_scratch())

    def test_an_early_read_reinserts_only_the_entity_it_put_out_of_order(self):
        """A read of the last of k new entities folds it ahead of the
        other k - 1, which then still stand in first-event order: the
        next suffix fold re-inserts that one entity, not all k."""
        store = LSDBStore(origin="o")
        store.insert("acct", "old", {"n": 0})
        store.fold_pending()
        k = 8
        for index in range(k):
            store.insert("acct", f"k{index}", {"n": index})
        store.get("acct", f"k{k - 1}")
        store._states = states = ReinsertCounting(store._states)
        store.fold_pending()
        assert states.reinserted == 1
        assert list(store.states_view()) == list(store.rollup_from_scratch())

    def test_deferred_state_equals_an_eager_store(self):
        deferred, eager = LSDBStore(origin="o"), EagerStore(origin="o")
        for index in range(40):
            for store in (deferred, eager):
                store.apply_delta("acct", f"k{index % 3}", Delta.add("bal", index))
            if index % 7 == 0:
                deferred.get("acct", f"k{index % 2}")
        assert deferred.current_state() == eager.current_state()

    def test_compact_folds_every_row_first(self):
        store = LSDBStore(origin="o")
        for _ in range(5):
            store.apply_delta("acct", "a", Delta.add("bal", 1))
        store.get("acct", "a")
        store.apply_delta("acct", "a", Delta.add("bal", 1))
        store.compact()
        # The summary rows the rewrite appended are not owed a fold.
        assert store.unfolded == 0
        assert store.get("acct", "a").fields == {"bal": 6}
        store.apply_delta("acct", "a", Delta.add("bal", 1))
        assert store.get("acct", "a").fields == {"bal": 7}

    def test_a_rebuild_drops_the_unfolded_rows_and_refolds_the_log(self):
        store = LSDBStore(origin="o")
        store.apply_delta("acct", "a", Delta.add("bal", 1))
        store.apply_delta("acct", "b", Delta.add("bal", 2))
        store.get("acct", "a")
        assert store.unfolded == 1
        assert store.rebuild_cache() == 2
        assert store.unfolded == 0
        assert store.get("acct", "b").fields == {"bal": 2}


class ReinsertCounting(dict):
    """A state map that counts the entities moved to its end by
    ``states[ref] = states.pop(ref)``."""

    reinserted = 0

    def pop(self, *args):
        self.reinserted += 1
        return super().pop(*args)


class EagerStore(LSDBStore):
    """The reference: folds every row the moment it is appended."""

    def _on_append_row(self, cols, row):
        super()._on_append_row(cols, row)
        self.fold_pending()


TYPES = ("acct", "item")


class Interleaving:
    """The same history fed to the store under test and to an
    :class:`EagerStore`; :meth:`check` compares them after each step
    without folding anything in the store under test."""

    def __init__(self):
        self.stores = [LSDBStore("s", origin="s"), EagerStore("s", origin="s")]
        for store in self.stores:
            store.enable_checkpoints()
        self.framed = LSDBStore("r2", origin="r2")
        self.single = LSDBStore("r3", origin="r3")

    @property
    def subject(self) -> LSDBStore:
        return self.stores[0]

    def run(self, op) -> None:
        name, *args = op
        if name == "local":
            entity_type, key = args
            for store in self.stores:
                store.apply_delta(entity_type, f"k{key}", Delta.add("n", key + 1))
        elif name == "frame":
            sent = self.framed.log.head_lsn
            for index in range(args[0]):
                self.framed.insert(TYPES[index % 2], f"k{index + 3}", {"f": index})
            frame = ColumnFrame.from_slice(self.framed.events_since(sent))
            for store in self.stores:
                store.apply_remote_frame(frame)
        elif name == "remote":
            count, reverse = args
            sent = self.single.log.head_lsn
            for index in range(count):
                self.single.set_fields("item", f"k{index + 1}", {"size": index})
            events = list(self.single.events_since(sent))
            if reverse:
                events.reverse()
            for store in self.stores:
                for event in events:
                    store.apply_remote(event)
        elif name == "read":
            entity_type, key = args
            subject, eager = (store.get(entity_type, f"k{key}") for store in self.stores)
            assert subject == eager
        elif name == "rebuild":
            for store in self.stores:
                store.rebuild_cache(full=args[0])
        elif name == "checkpoint":
            for store in self.stores:
                store.checkpoints.take()
        else:
            for store in self.stores:
                store.compact(keep_recent=args[0])

    def check(self) -> None:
        probe = copy.deepcopy(self.subject)
        eager = self.stores[1]
        unfolded = probe.unfolded
        assert probe.fold_pending() == unfolded and probe.unfolded == 0
        assert list(probe.states_view().items()) == list(eager.states_view().items())
        assert sum(s.event_count for s in probe.states_view().values()) == sum(
            s.event_count for s in eager.states_view().values()
        )
        for entity_type in TYPES:
            assert [
                state.entity_key
                for state in probe.entities_of_type(entity_type, live_only=False)
            ] == [
                state.entity_key
                for state in eager.entities_of_type(entity_type, live_only=False)
            ]


type_keys = st.tuples(st.sampled_from(TYPES), st.integers(min_value=0, max_value=6))
steps = st.one_of(
    st.tuples(st.just("local"), st.sampled_from(TYPES), st.integers(0, 4)),
    st.tuples(st.just("frame"), st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("remote"), st.integers(min_value=1, max_value=3), st.booleans()),
    # Keys 5 and 6 are only ever read: reads of entities nobody wrote.
    st.tuples(st.just("read"), st.sampled_from(TYPES), st.integers(0, 6)),
    st.tuples(st.just("rebuild"), st.booleans()),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("compact"), st.integers(min_value=0, max_value=4)),
)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(steps, max_size=30))
# A read that finds its entity's rows unfolded, twice, and a frame after
# it: the catch-up's record of how far it folded is what keeps each of
# these rows from folding twice.
@example(
    ops=[
        ("local", "acct", 1), ("local", "item", 2), ("read", "acct", 1),
        ("local", "acct", 1), ("read", "acct", 1), ("frame", 2),
    ]
)
def test_folding_on_demand_equals_folding_every_row_at_once(ops):
    """Local appends, single remote events, frames, reads of new and old
    entities, rebuilds, checkpoints and compactions in any order: after
    each step the store's fold (taken on a copy, so the check folds
    nothing in the store itself) and every type's first-event order
    equal the eager store's, with every row folded exactly once."""
    history = Interleaving()
    for op in ops:
        history.run(op)
        history.check()


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


@pytest.mark.parametrize(
    "build", [master_slave_cluster, geo_cluster], ids=["master_slave", "geo_2of3"]
)
def test_a_ship_round_leaves_its_shipper_nothing_to_fold(build):
    """Writes and a few reads in the first nine time units, then the ship
    round at ten: the nodes that wrote held unfolded rows before it and
    hold none after it, with no reader having folded them."""
    cluster = build(seed=5, traced=False)
    nodes = replica_nodes(cluster.replication)

    def write(index: int) -> None:
        key = f"k{index % 12}"
        if cluster.transactions is None:
            cluster.replication.write_delta("entity", key, Delta.add("n", 1))
            return
        tx = cluster.transactions.begin()
        tx.apply_delta("entity", key, Delta.add("n", 1))
        tx.commit()

    for index in range(60):
        cluster.sim.schedule_at(0.15 * index, lambda i=index: write(i), label="w")
    for index in range(0, 60, 7):
        cluster.sim.schedule_at(
            0.15 * index + 0.01,
            lambda i=index: cluster.read("entity", f"k{i % 12}"),
            label="r",
        )
    cluster.sim.run(until=9.5)
    before = {node.node_id: node.store.unfolded for node in nodes}
    assert sum(before.values()) > 0
    cluster.sim.run(until=10.5)
    assert {node.node_id: node.store.unfolded for node in nodes} == dict.fromkeys(
        before, 0
    )
