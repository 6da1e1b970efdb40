"""A traced round changes nothing, adds up, and cleans up after itself."""

import sys

import pytest

from harness import check_state, run_round, _Client
from instrument import SELF_TIME_METRIC, Instrumentation, replica_nodes
from spans import SpanRecorder
from workloads import WORKLOADS, build_cluster, compile_schedule

SCALE = 0.01


def _shadowed(cluster):
    """Every instance attribute that shadows a method, cluster-wide."""
    owners = [cluster.sim, cluster.network, cluster.front_door, cluster.replication]
    owners += [c for c in cluster.read_caches]
    if cluster.warehouse is not None:
        owners.append(cluster.warehouse)
    for gateway in getattr(cluster.replication, "gateways", {}).values():
        owners.append(gateway)
    for node in replica_nodes(cluster):
        owners += [node, node.store, node.store.log, node.store.rollup]
    return [
        (type(owner).__name__, name)
        for owner in owners
        for name, value in vars(owner).items()
        if callable(value) and hasattr(type(owner), name)
    ]


@pytest.mark.parametrize("name", ["ms_mild", "geo_2of3"])
def test_wrappers_are_removed_after_a_traced_run(name):
    import repro.core.readpath as readpath
    import repro.lsdb.readcache as readcache

    deliver = readpath.deliver
    cluster = build_cluster(WORKLOADS[name], seed=1)
    store = replica_nodes(cluster)[0].store
    subscribers = list(store.log._columnar)
    before = _shadowed(cluster)

    instrumentation = Instrumentation(SpanRecorder())
    instrumentation.install(cluster)
    assert instrumentation.entry_points > 30
    assert len(_shadowed(cluster)) > len(before)
    assert readpath.deliver is not deliver and readcache.deliver is not deliver

    instrumentation.restore()
    assert _shadowed(cluster) == before
    assert store.log._columnar == subscribers
    for module_name, module in sys.modules.items():
        if module_name.startswith("repro.") and "deliver" in vars(module):
            assert vars(module)["deliver"] is deliver, module_name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_rounds_agree_and_self_times_add_up(name):
    import repro.core.readpath as readpath

    deliver = readpath.deliver
    plain = run_round(WORKLOADS[name], seed=11, scale=SCALE)
    traced = run_round(WORKLOADS[name], seed=11, scale=SCALE, traced=True)
    assert readpath.deliver is deliver
    assert plain.failures == [] and traced.failures == []
    assert traced.digest == plain.digest
    assert traced.counts == plain.counts

    self_seconds = sum(v for k, v in traced.layers.items() if k.endswith("_s"))
    assert self_seconds == pytest.approx(traced.wall_s, rel=0.01)
    assert set(SELF_TIME_METRIC.values()) <= set(traced.layers)
    if name == "geo_2of3":
        assert traced.counts["tx.commits"] == 0 and traced.layers["tx.self_s"] == 0
        assert traced.layers["scheme.write_self_s"] > 0
    else:
        assert traced.counts["tx.commits"] == traced.counts["ops.writes"]


def test_the_oracle_names_a_lost_write_and_a_diverged_replica():
    workload = WORKLOADS["ms_hot"]
    cluster = build_cluster(workload, seed=2)
    schedule = compile_schedule(workload, seed=2, scale=SCALE)
    client = _Client(cluster, schedule, None)
    client.arm()
    cluster.sim.run(until=schedule.duration + 100.0)
    assert check_state(cluster, schedule, client) == []

    # An acknowledged write the store never saw...
    victim = next(k for k, r in zip(schedule.key, schedule.request) if r is None)
    schedule.key.append(victim)
    schedule.request.append(None)
    schedule.at.append(schedule.at[-1])
    client.cursor += 1
    failures = check_state(cluster, schedule, client)
    assert any(f.startswith(f"key {victim}:") for f in failures)

    # ...and a slave that silently took a write of its own.
    slave = cluster.replication.slaves["slave-1"]
    from repro.merge.deltas import Delta

    slave.store.apply_delta("entity", victim, Delta.add("value", 1))
    failures = check_state(cluster, schedule, client)
    assert "replica slave-1 disagrees with master" in failures
