"""Read cost: an efficiency invariant on the bounded read path.

The read-side sibling of ``test_ship_once.py``.  The paper's bargain is
that a weaker read is *cheaper* and honestly stamped; these tests pin
the "cheaper" half by counting work, never by timing it:

* stamping a follower read's staleness answers from the authority's
  per-origin index — no ``EventSlice`` is built and no ``LogEvent`` is
  materialised on any read, on any scheme;
* one warm cache hit through the whole ladder stack (cluster → front
  door → ladder rung → master/slave → read cache) stays inside a budget
  of Python function calls, which is what keeps ``Enum.__hash__``,
  ``.value`` descriptors and per-read list building off the path —
  whether the caller passes the request or the entity type's
  consistency policy supplies it;
* one warm geo read (cluster → sited front door → geo group) stays
  inside its own budget, with no key digest and no latency lookup —
  routing is a memo hit and a precomputed read order.

The clusters are built the way the end-to-end ladder builds them.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest

from repro import Cluster
from repro.core.consistency import ConsistencyLevel, ConsistencyPolicy
from repro.core.readpath import ReadRequest
from repro.lsdb.columnar import EventColumns
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta

BOUND = 20.0
BOUNDED = ReadRequest.bounded(BOUND)
KEYS = 40
READS = 1_000
#: Python ``call`` events for one warm cache-hit BOUNDED read through
#: ``Cluster.read``: 59 before the read path was made constant-work,
#: 28 measured when this budget was set (CPython 3.11).  Ratchet it down
#: with the next saving; never up without saying what the calls buy.
WARM_HIT_CALL_BUDGET = 32
#: The same for one warm geo BOUNDED read served by the door's own site:
#: 34 while every read re-hashed its key and re-ranked the shard's live
#: members by latency, 27 measured once the shard was memoised and the
#: per-(shard, site) read order precomputed (CPython 3.11).
GEO_READ_CALL_BUDGET = 29


def ladder_builder(seed: int = 11):
    return (
        Cluster.build(seed=seed)
        .with_network(latency=2.0)
        .with_batching(max_batch=64)
        .with_read_cache(capacity=32, hot_capacity=8, coalesce_window=2.0)
    )


def master_slave_cluster(*policies):
    return (
        ladder_builder()
        .with_replicas(3, mode="master_slave", ship_interval=10.0)
        .with_warehouse(interval=100.0)
        .with_transactions()
        .with_front_door()
        .with_consistency(*policies)
        .create()
    )


def geo_cluster():
    return (
        ladder_builder()
        .with_topology(("us", "eu", "ap"), wan_latency=30.0)
        .with_placement(replicas=2, shards=16, ship_interval=10.0)
        .with_front_door(site="us")
        .create()
    )


def async_cluster():
    return (
        ladder_builder()
        .with_replicas(2, mode="async", ship_interval=10.0)
        .with_front_door()
        .create()
    )


def write(cluster, index: int) -> None:
    key = f"k{index % KEYS}"
    if cluster.transactions is None:
        cluster.replication.write_delta("entity", key, Delta.add("n", 1))
        return
    tx = cluster.transactions.begin()
    tx.apply_delta("entity", key, Delta.add("n", 1))
    tx.commit()


class CallCounter:
    """Counts calls of two class methods, but only while armed."""

    def __init__(self, monkeypatch):
        self.armed = False
        self.calls = {"event_at": 0, "events_from_origin": 0}
        for owner, name in (
            (EventColumns, "event_at"),
            (LSDBStore, "events_from_origin"),
        ):
            monkeypatch.setattr(owner, name, self._counting(name, getattr(owner, name)))

    def _counting(self, name, original):
        def counted(*args, **kwargs):
            if self.armed:
                self.calls[name] += 1
            return original(*args, **kwargs)

        return counted

    @contextmanager
    def arm(self):
        self.armed = True
        try:
            yield
        finally:
            self.armed = False


def python_calls(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and every Python ``call`` event it made,
    as ``"file.py:function"``."""
    calls: list[str] = []

    def profiler(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            calls.append(f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}")

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return result, calls


@pytest.mark.parametrize(
    "build", [master_slave_cluster, geo_cluster, async_cluster],
    ids=["master_slave", "geo", "async"],
)
def test_bounded_reads_materialise_nothing(build, monkeypatch):
    """1,000 bounded reads interleaved with sustained writes: the copy
    that serves is behind on many of them and stamps a measured
    staleness — and no read builds a feed slice or an event to do it."""
    counter = CallCounter(monkeypatch)
    cluster = build()
    results = []

    def read(index: int) -> None:
        # A skewed mix: a few keys take most reads (warm hits), the
        # rest sweep the population (misses and evictions).
        key = f"k{index % 4}" if index % 3 else f"k{index % KEYS}"
        with counter.arm():
            results.append(cluster.read("entity", key, request=BOUNDED))

    for index in range(READS):
        at = 0.2 * index
        cluster.sim.schedule_at(at, lambda i=index: write(cluster, i), label="w")
        cluster.sim.schedule_at(at + 0.1, lambda i=index: read(i), label="r")
    cluster.sim.run(until=0.2 * READS + 50.0)

    assert len(results) == READS
    assert not any(result.rejected for result in results)
    # The reads were the interesting kind: the serving copy was behind
    # (on geo only where the door's site does not coordinate the shard)
    # and the stamps say by how much.
    assert sum(1 for r in results if r.staleness) > READS // 10
    assert all(r.staleness <= BOUND for r in results if not r.degraded)
    if cluster.placement is None:  # geo reads do not go through the caches
        assert sum(cache.hits for cache in cluster.read_caches) > READS // 4
    assert counter.calls == {"event_at": 0, "events_from_origin": 0}
    # The counter has teeth: this is what a read used to do per stamp.
    store = LSDBStore(origin="probe")
    store.insert("entity", "k", {"n": 1})
    with counter.arm():
        assert store.events_from_origin("probe", 0)[0].timestamp == 0.0
    assert counter.calls == {"event_at": 1, "events_from_origin": 1}


def warm_hit(cluster, **request):
    """One warm cache-hit read of ``k7`` on a lagging slave, and its
    Python calls; ``request`` is the ``request=`` keyword, if any."""
    for index in range(KEYS):
        write(cluster, index)
    cluster.sim.run(until=50.0)  # shipped: the slave holds every key
    for _ in range(3):  # cached, tracked hot, breakers closed
        cluster.read("entity", "k7", **request)
    write(cluster, 8)
    cluster.sim.run(until=51.0)  # the slave now lags: a measured stamp

    hits = sum(cache.hits for cache in cluster.read_caches)
    result, calls = python_calls(cluster.read, "entity", "k7", **request)
    assert sum(cache.hits for cache in cluster.read_caches) == hits + 1
    return result, calls


def test_warm_cache_hit_stays_inside_the_call_budget():
    result, calls = warm_hit(master_slave_cluster(), request=BOUNDED)

    assert result.served_by == "slave-1" and not result.degraded
    assert result.staleness == 1.0
    assert len(calls) <= WARM_HIT_CALL_BUDGET, (len(calls), calls)
    # What the budget exists to keep out.
    assert not [c for c in calls if c.startswith(("enum.py:", "types.py:"))]


def test_policy_default_warm_hit_stays_inside_the_call_budget():
    """The same hit with no ``request=``: the entity type's policy
    supplies it, and the table lookup costs no Python call."""
    policy = ConsistencyPolicy(
        "entity", ConsistencyLevel.BOUNDED_STALENESS,
        rationale="reads tolerate shipping lag", max_staleness=BOUND,
    )
    result, calls = warm_hit(master_slave_cluster(policy))

    assert result.requested_level is ConsistencyLevel.BOUNDED_STALENESS
    assert result.served_by == "slave-1" and not result.degraded
    assert result.staleness == 1.0
    assert len(calls) <= WARM_HIT_CALL_BUDGET, (len(calls), calls)


def test_warm_geo_read_stays_inside_the_call_budget():
    cluster = geo_cluster()
    placement = cluster.placement
    # A key the door's site hosts but does not coordinate: the local copy
    # serves, and it lags the home site's fresh write.
    key = next(
        f"k{index}"
        for index in range(KEYS)
        if "us" in placement.sites_for("entity", f"k{index}")[1:]
    )
    for index in range(KEYS):
        write(cluster, index)
    cluster.sim.run(until=50.0)  # shipped: every group holds every key
    for _ in range(3):  # warm: shard memoised, read order built
        cluster.read("entity", key, request=BOUNDED)
    cluster.replication.write_delta("entity", key, Delta.add("n", 1))
    cluster.sim.run(until=51.0)  # the local copy now lags: a measured stamp

    result, calls = python_calls(cluster.read, "entity", key, request=BOUNDED)

    assert result.site == "us" and result.served_by.startswith("us/")
    assert result.staleness == 1.0 and not result.degraded
    assert len(calls) <= GEO_READ_CALL_BUDGET, (len(calls), calls)
    # What the budget exists to keep out: the key's digest and the
    # per-read latency comparisons.
    assert not [c for c in calls if c.startswith(("ring.py:", "topology.py:"))]

