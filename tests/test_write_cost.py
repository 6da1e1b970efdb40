"""Write cost: an efficiency invariant on the scheme write path.

The write-side sibling of ``test_read_cost.py``.  A scheme write is a
subjective commit: it acks the moment the row is in the coordinator's
log, so the only work it owes is one ``LSDBStore.append_local``.  These
tests pin that by counting work, never by timing it:

* no scheme write builds a ``LogEvent`` (``EventColumns.event_at`` is
  never called) — geo, master/slave, async and eager active/active;
* one warm geo ``write_delta`` through the ladder's geo cluster stays
  inside a budget of Python function calls, which is what keeps the
  discarded event and the coordinator's per-write site lookups off the
  path;
* one warm plain (solipsistic) ``begin -> apply_delta -> commit``
  through the ladder's master/slave cluster stays inside its own budget:
  a commit with no isolation level, no deferred actions, no constraints
  and no metrics is one ``append_local`` plus its receipt;
* that one ``append_local`` on the ladder's store stays inside a budget
  of its own: the arena row, its log index and its origin-feed record
  are one pass, and nothing is folded or queued for a fold;
* one warm ``store.get`` with k unfolded rows of its own entity makes
  the same number of calls and folds exactly those k rows however many
  rows of other entities are unfolded beside them.

The clusters are built the way the end-to-end ladder builds them.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro import Cluster
from repro.lsdb.columnar import EventColumns
from repro.lsdb.events import EventKind
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.replication.active_active import ActiveActiveGroup

KEYS = 40
WRITES = 600
#: Python ``call`` events for one warm geo ``write_delta`` (delta built
#: beforehand): 26 while scheme writes went through ``store.apply_delta``
#: and the coordinator walked the placement's site tuple, 20 once they
#: were one ``append_local``, 18 with the shard memoised per key and the
#: arena encoding ``EventKind.code`` without ``Enum.__hash__``, 16
#: two set-map comprehensions for a numeric-only delta (CPython 3.11),
#: 11 once the store append indexed the row and recorded its feed
#: inline (``STORE_APPEND_CALL_BUDGET``), 9 once the store append
#: stopped queueing its row for a fold, 8 once the log wrote the row's
#: columns itself.  Ratchet it down with the next saving; never up
#: without saying what the calls buy.
WRITE_CALL_BUDGET = 9
#: Python ``call`` events for one warm plain ``begin -> apply_delta ->
#: commit`` (delta built beforehand): 35 while ``PendingOp`` was a frozen
#: dataclass, ``begin`` hopped through ``manager.now()``, and every
#: commit went through ``_schedule_actions``, ``_count_outcome`` and
#: ``_receipt_tracking`` for results it then discarded; 26 once they
#: were skipped, 21 with the one-pass store append below it, 19 once
#: that append stopped queueing its row for a fold, 18 once the log
#: wrote the row's columns itself (CPython 3.11).  Same ratchet rule.
TX_WRITE_CALL_BUDGET = 19
#: Python ``call`` events for one warm ``LSDBStore.append_local`` on the
#: ladder's master store: 12 while the arena interned the origin, the
#: log indexed the row and the store recorded its origin feed through
#: calls of their own (``intern``, ``_index_row``,
#: ``_record_origin_run`` -> ``value`` -> ``record``); 7 with all three
#: inline; 5 once the row was no longer handed to a write coalescer
#: (its ``defer`` and a second clock read); 4 once ``log.append_row``
#: wrote the row's columns itself instead of calling
#: ``EventColumns.append_row`` — ``append_local``, the clock,
#: ``log.append_row`` and ``_on_append_row`` (CPython 3.11).  Same
#: ratchet rule.
STORE_APPEND_CALL_BUDGET = 5
#: Python ``call`` events for one warm ``store.get`` of an entity with
#: unfolded rows of its own: ``get``, ``_catch_up``, ``_fold_rows``, the
#: ``EventSlice`` and ``fold_slice_into`` — 5 however many rows of other
#: entities are unfolded beside them.  The store-wide write coalescer
#: this replaced folded those too, one ``EntityState`` per new entity
#: among them (CPython 3.11).  Same ratchet rule.
STORE_GET_CALL_BUDGET = 6


def ladder_builder(seed: int = 11):
    return (
        Cluster.build(seed=seed)
        .with_network(latency=2.0)
        .with_batching(max_batch=64)
        .with_read_cache(capacity=32, hot_capacity=8, coalesce_window=2.0)
    )


def geo_cluster():
    return (
        ladder_builder()
        .with_topology(("us", "eu", "ap"), wan_latency=30.0)
        .with_placement(replicas=2, shards=16, ship_interval=10.0)
        .with_front_door(site="us")
        .create()
    )


def transactional_cluster():
    """The ladder's master/slave shape: writes go through transactions."""
    return (
        ladder_builder()
        .with_replicas(4, mode="master_slave", ship_interval=10.0)
        .with_warehouse(interval=100.0)
        .with_transactions()
        .with_front_door()
        .create()
    )


def master_slave_cluster():
    return (
        ladder_builder()
        .with_replicas(3, mode="master_slave", ship_interval=10.0)
        .create()
    )


def async_cluster():
    """The one-slave group: the classic asynchronous primary/backup pair."""
    return (
        ladder_builder()
        .with_replicas(2, mode="master_slave", ship_interval=10.0)
        .create()
    )


def active_active_cluster():
    return (
        ladder_builder()
        .with_replicas(3, mode="active_active", eager=True)
        .create()
    )


def scheme_writers(scheme):
    """A ``write(index)`` that cycles through every write kind the
    scheme offers, and how many kinds that is; active/active writes
    address a replica, rotating through the group."""
    names = ("write_insert", "write_delta", "write_set_fields")
    writers = [getattr(scheme, name) for name in names if hasattr(scheme, name)]
    replica_ids = (
        list(scheme.replicas) if isinstance(scheme, ActiveActiveGroup) else []
    )

    def write(index: int) -> None:
        key = f"k{index % KEYS}"
        writer = writers[index % len(writers)]
        value = (
            Delta.add("n", 1)
            if writer.__name__ == "write_delta"
            else {"n": index, "tag": f"t{index % 7}"}
        )
        prefix = (replica_ids[index % len(replica_ids)],) if replica_ids else ()
        writer(*prefix, "entity", key, value)

    return write, len(writers)


def scheme_nodes(scheme):
    """Every replica node of a scheme."""
    if hasattr(scheme, "replica_list"):
        return scheme.replica_list()
    if hasattr(scheme, "master"):
        return [scheme.master, *scheme.slaves.values()]
    return [scheme.primary, scheme.backup]


def python_calls(operation) -> list[str]:
    """``file:function`` of every Python-level call ``operation()``
    makes (C calls and this file's own frames are not counted)."""
    calls: list[str] = []

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename != __file__:
            code = frame.f_code
            calls.append(f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}")

    # An automatic collection inside the measured region would run
    # other code's ``gc.callbacks`` (hypothesis registers one) and count
    # their calls against the operation.
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        operation()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls


class EventAtCounter:
    """Counts ``EventColumns.event_at`` calls, but only while armed."""

    def __init__(self, monkeypatch):
        self.armed = False
        self.calls = 0
        original = EventColumns.event_at

        def counted(*args, **kwargs):
            if self.armed:
                self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(EventColumns, "event_at", counted)


@pytest.mark.parametrize(
    "build",
    [geo_cluster, master_slave_cluster, async_cluster, active_active_cluster],
    ids=["geo", "master_slave", "async", "active_active"],
)
def test_scheme_writes_build_no_event(build, monkeypatch):
    """600 scheme writes spread over every write kind the scheme has,
    interleaved with shipping: none of them materialises a ``LogEvent``
    — and the writes really landed and replicated."""
    counter = EventAtCounter(monkeypatch)
    cluster = build()
    scheme = cluster.replication
    write, kinds = scheme_writers(scheme)
    assert kinds >= 2

    def armed_write(index: int) -> None:
        counter.armed = True
        try:
            write(index)
        finally:
            counter.armed = False

    for index in range(WRITES):
        cluster.sim.schedule_at(0.2 * index, lambda i=index: armed_write(i), label="w")
    cluster.sim.run(until=0.2 * WRITES + 200.0)

    assert sum(len(node.store.log) for node in scheme_nodes(scheme)) >= WRITES * 2
    assert counter.calls == 0
    # The counter has teeth: the store's typed writer is the API edge
    # that does build one.
    store = LSDBStore(origin="probe")
    counter.armed = True
    store.apply_delta("entity", "k", Delta.add("n", 1))
    counter.armed = False
    assert counter.calls == 1


def test_warm_geo_write_stays_inside_the_call_budget():
    cluster = geo_cluster()
    scheme = cluster.replication
    for index in range(KEYS):
        scheme.write_delta("entity", f"k{index}", Delta.add("n", 1))
    cluster.sim.run(until=50.0)  # shipped: every group holds every key
    for _ in range(3):  # warm: the coordinator's store knows the key
        scheme.write_delta("entity", "k7", Delta.add("n", 1))
    accepted = scheme.writes_accepted
    delta = Delta.add("n", 1)
    calls = python_calls(lambda: scheme.write_delta("entity", "k7", delta))

    assert scheme.writes_accepted == accepted + 1
    cluster.sim.run(until=100.0)
    assert scheme.coordinator("entity", "k7").store.get("entity", "k7").fields[
        "n"
    ] == 5
    assert len(calls) <= WRITE_CALL_BUDGET, (len(calls), calls)
    # What the budget exists to keep out: the discarded event, the site
    # tuple walk, the key's digest and the kind's ``Enum.__hash__``.
    assert not [c for c in calls if c.endswith((":event_at", ":sites_for_shard"))]
    assert "ring.py:_key_token" not in calls
    assert not [c for c in calls if c.startswith("enum.py:")]
    # A numeric-only delta serialises without walking its empty set maps.
    assert "deltas.py:<dictcomp>" not in calls
    # The append reads the clock once.
    assert calls.count("replica.py:<lambda>") == 1


def test_warm_plain_commit_stays_inside_the_call_budget():
    cluster = transactional_cluster()
    transactions = cluster.transactions
    assert transactions.isolation is None and transactions.metrics is None
    assert transactions.constraints is None and transactions.queue is None

    def write(key: str, delta: Delta):
        tx = transactions.begin()
        tx.apply_delta("entity", key, delta)
        return tx.commit()

    for index in range(KEYS):
        write(f"k{index}", Delta.add("n", 1))
    cluster.sim.run(until=50.0)  # shipped: every slave holds every key
    for _ in range(3):  # warm: the master's store knows the key
        write("k7", Delta.add("n", 1))
    commits = transactions.commits
    delta = Delta.add("n", 1)
    receipts = []
    calls = python_calls(lambda: receipts.append(write("k7", delta)))

    (receipt,) = receipts
    assert receipt.committed and transactions.commits == commits + 1
    assert len(receipt.events) == 1 and receipt.events[0].payload == delta.to_payload()
    assert receipt.acked_at == receipt.actions_done_at == (
        receipt.submitted_at + transactions.commit_cost
    )
    cluster.sim.run(until=100.0)
    assert cluster.replication.master.store.get("entity", "k7").fields["n"] == 5
    assert len(calls) <= TX_WRITE_CALL_BUDGET, (len(calls), calls)
    # The commit's real work: one append, not a LogEvent.
    assert calls.count("store.py:append_local") == 1
    assert not [c for c in calls if c.endswith(":event_at")]
    # What the budget exists to keep out: bookkeeping a plain commit
    # computes only to discard, and the empty set-map comprehensions.
    assert not [
        c
        for c in calls
        if c.endswith((":_schedule_actions", ":_receipt_tracking", ":_count_outcome"))
    ]
    assert "deltas.py:<dictcomp>" not in calls
    assert calls.count("replica.py:<lambda>") == 1


def test_warm_store_append_stays_inside_the_call_budget():
    cluster = master_slave_cluster()
    store = cluster.replication.master.store
    assert store.coalescer is None and store.tracer is None
    for index in range(KEYS):
        store.append_local("entity", f"k{index}", EventKind.DELTA, {"numeric": {"n": 1}})
    for _ in range(3):  # warm: the store knows the key and its origin
        store.append_local("entity", "k7", EventKind.DELTA, {"numeric": {"n": 1}})
    payload = {"numeric": {"n": 1}}
    rows = []
    calls = python_calls(
        lambda: rows.append(
            store.append_local("entity", "k7", EventKind.DELTA, payload, "t1")
        )
    )

    (row,) = rows
    log = store.log
    assert log.arena.payloads[row] is payload and log.arena.tx_ids[row] == "t1"
    assert log.entity_head_lsn("entity", "k7") == log.arena.lsns[row]
    assert store.version_vector.get(store.origin) == store.origin_seq
    assert store.events_from_origin(store.origin, store.origin_seq - 1).rows[0] == row
    assert store.get("entity", "k7").fields["n"] == 5
    assert len(calls) <= STORE_APPEND_CALL_BUDGET, (len(calls), calls)
    # What the budget exists to keep out: a call per index, intern and
    # feed record, and a fold (or a queue for one) with its own clock read.
    assert not [
        c
        for c in calls
        if c.endswith((":intern", ":_index_row", ":_record_origin_run", ":record"))
    ]
    assert not [c for c in calls if c.endswith(("fold_slice_into", ":_fold_rows"))]
    assert calls.count("replica.py:<lambda>") == 1  # the one clock read


class FoldedRows:
    """Counts the rows ``store.rollup.fold_slice_into`` folds into the
    store's state map — shadowed on the instance, the way the end-to-end
    ladder counts ``fold.rows``.  Defined here, not shared with
    ``test_fold_once.py``, so its frames stay out of ``python_calls``."""

    def __init__(self, store: LSDBStore):
        self.rows = 0
        original = store.rollup.fold_slice_into

        def counting(states, view, *args, **kwargs):
            if states is store._states:
                self.rows += len(view.rows)
            return original(states, view, *args, **kwargs)

        store.rollup.fold_slice_into = counting


@pytest.mark.parametrize("others", [0, 63, 4096])
@pytest.mark.parametrize("own", [1, 2, 5])
def test_warm_store_get_folds_only_its_own_rows(own, others):
    """A read pays for its own entity's unfolded rows and nothing else:
    the same calls and exactly ``own`` rows folded, with 0, 63 (just
    under the old coalescing batch) or 4096 rows of other entities
    still unfolded."""
    cluster = master_slave_cluster()
    store = cluster.replication.master.store
    assert store.coalescer is None
    for index in range(KEYS):
        store.append_local("entity", f"k{index}", EventKind.DELTA, {"numeric": {"n": 1}})
    store.get("entity", "k7")
    assert store.fold_pending() == KEYS - 1  # warm: every entity folded
    for index in range(others):
        key = f"k{index % KEYS}" if index % KEYS != 7 else "new"
        store.append_local("entity", key, EventKind.DELTA, {"numeric": {"n": 1}})
    for _ in range(own):
        store.append_local("entity", "k7", EventKind.DELTA, {"numeric": {"n": 1}})
    assert store.unfolded == own + others
    folded = FoldedRows(store)
    states = []
    calls = python_calls(lambda: states.append(store.get("entity", "k7")))

    (state,) = states
    assert state.fields["n"] == 1 + own
    assert folded.rows == own
    assert store.unfolded == others
    assert len(calls) <= STORE_GET_CALL_BUDGET, (len(calls), calls)
    # No whole-suffix fold and no state built for another entity.
    assert "store.py:fold_pending" not in calls
    assert "<string>:__init__" not in calls
    # Nothing of its own left, so a second read is one call.
    assert python_calls(lambda: store.get("entity", "k7")) == ["store.py:get"]
    assert store.states_view()[("entity", "k7")] is state
    assert folded.rows == own + others and store.unfolded == 0


def test_store_instances_keep_a_key_shared_attribute_dict():
    """CPython 3.11 shares one keys table between the attribute dicts of
    a class's instances only while each holds at most 29 attributes; one
    more makes every ``self.x`` on the store's read and append paths a
    slower lookup (the unfolded-row bookkeeping crossed it once, and
    warm ladder reads got slower with no extra bytecode).  The ladder's
    stores, with checkpoints armed, stay inside it."""
    cluster = master_slave_cluster()
    stores = [node.store for node in scheme_nodes(cluster.replication)]
    stores[0].enable_checkpoints()
    stores.append(LSDBStore(origin="plain"))
    for store in stores:
        store.append_local("entity", "k", EventKind.DELTA, {"numeric": {"n": 1}})
        store.get("entity", "k")
        store.compact()
        assert len(vars(store)) <= 29, sorted(vars(store))

