"""The typed ReadRequest/ReadResult protocol (repro.core.readpath)."""

from __future__ import annotations

import warnings

import pytest

from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import (
    ConsistencyUnavailable,
    ReadRequest,
    ReadResult,
    deliver,
    is_weaker,
    replica_level,
)
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.obs.metrics import MetricsRegistry
from repro.replication.batching import BatchPolicy
from repro.replication.master_slave import MasterSlaveGroup
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


def make_group(sim, **kwargs):
    net = Network(sim, latency=2.0)
    kwargs.setdefault("batching", BatchPolicy())
    return MasterSlaveGroup(sim, net, "m", ["s1"], **kwargs)


class TestReadRequest:
    def test_defaults_are_strong_and_degradable(self):
        request = ReadRequest()
        assert request.level is ConsistencyLevel.STRONG
        assert request.max_staleness is None
        assert request.allow_degraded

    def test_classmethod_shorthands(self):
        assert ReadRequest.strong().level is ConsistencyLevel.STRONG
        bounded = ReadRequest.bounded(5.0)
        assert bounded.level is ConsistencyLevel.BOUNDED_STALENESS
        assert bounded.max_staleness == 5.0
        assert ReadRequest.eventual().level is ConsistencyLevel.EVENTUAL

    def test_requests_are_frozen(self):
        with pytest.raises(AttributeError):
            ReadRequest().level = ConsistencyLevel.EVENTUAL


class TestLevelOrdering:
    def test_strength_order(self):
        assert is_weaker(
            ConsistencyLevel.EVENTUAL, than=ConsistencyLevel.STRONG
        )
        assert is_weaker(
            ConsistencyLevel.EXTRACT, than=ConsistencyLevel.BOUNDED_STALENESS
        )
        assert not is_weaker(
            ConsistencyLevel.STRONG, than=ConsistencyLevel.EVENTUAL
        )

    def test_replica_level_floors_at_bounded(self):
        assert (
            replica_level(ConsistencyLevel.STRONG)
            is ConsistencyLevel.BOUNDED_STALENESS
        )
        assert (
            replica_level(ConsistencyLevel.EVENTUAL)
            is ConsistencyLevel.EVENTUAL
        )

    def test_truth_tables_match_the_strength_table(self):
        """``is_weaker`` / ``replica_level`` rank by ``level.strength``
        instead of looking levels up in a ``LEVEL_STRENGTH`` dict
        (hashing an ``Enum`` is a Python call); that table and the
        definitions over it are the reference here, for all 25 pairs."""
        strength = {
            ConsistencyLevel.STRONG: 0,
            ConsistencyLevel.BOUNDED_STALENESS: 1,
            ConsistencyLevel.EVENTUAL: 2,
            ConsistencyLevel.TENTATIVE: 3,
            ConsistencyLevel.EXTRACT: 4,
        }
        assert {level: level.strength for level in ConsistencyLevel} == strength
        bounded = ConsistencyLevel.BOUNDED_STALENESS
        for level in ConsistencyLevel:
            floored = bounded if strength[level] < strength[bounded] else level
            assert replica_level(level) is floored
            for than in ConsistencyLevel:
                assert is_weaker(level, than) is (strength[level] > strength[than])


class TestReadResultTransparency:
    def _state(self):
        store = LSDBStore()
        store.insert("order", "o-1", {"total": 7})
        return store.get("order", "o-1")

    def test_attribute_forwarding(self):
        result = ReadResult(
            self._state(),
            requested_level=ConsistencyLevel.STRONG,
            delivered_level=ConsistencyLevel.STRONG,
            staleness=0.0,
        )
        assert result.fields["total"] == 7  # forwarded to the EntityState

    def test_unwrap_and_truthiness(self):
        state = self._state()
        hit = ReadResult(
            state,
            requested_level=ConsistencyLevel.STRONG,
            delivered_level=ConsistencyLevel.STRONG,
        )
        miss = ReadResult(
            None,
            requested_level=ConsistencyLevel.STRONG,
            delivered_level=ConsistencyLevel.STRONG,
        )
        assert hit.unwrap() is state
        assert bool(hit) and not bool(miss)
        assert hit.ok and miss.ok  # ok = served, truthiness = found

    def test_equality_compares_unwrapped(self):
        state = self._state()
        result = ReadResult(
            state,
            requested_level=ConsistencyLevel.STRONG,
            delivered_level=ConsistencyLevel.STRONG,
        )
        assert result == state
        empty = ReadResult(
            None,
            requested_level=ConsistencyLevel.STRONG,
            delivered_level=ConsistencyLevel.STRONG,
        )
        assert empty == None  # noqa: E711 - the point of the test

    def test_missing_value_attribute_error(self):
        empty = ReadResult(
            None,
            requested_level=ConsistencyLevel.STRONG,
            delivered_level=ConsistencyLevel.STRONG,
        )
        with pytest.raises(AttributeError):
            empty.fields


class TestDeliver:
    def test_degraded_stamp(self):
        result = deliver(
            None,
            ReadRequest.strong(),
            ConsistencyLevel.EVENTUAL,
            staleness=3.0,
            served_by="backup",
        )
        assert result.degraded
        assert result.delivered_level is ConsistencyLevel.EVENTUAL
        assert result.staleness == 3.0

    def test_allow_degraded_false_raises(self):
        request = ReadRequest(
            level=ConsistencyLevel.STRONG, allow_degraded=False
        )
        with pytest.raises(ConsistencyUnavailable):
            deliver(
                None, request, ConsistencyLevel.EVENTUAL, staleness=1.0
            )

    def test_bound_violation_counts(self):
        metrics = MetricsRegistry()
        request = ReadRequest.bounded(2.0)
        result = deliver(
            None,
            request,
            ConsistencyLevel.BOUNDED_STALENESS,
            staleness=9.0,
            metrics=metrics,
        )
        assert result.bound_violated
        assert (
            metrics.value(
                "read.staleness_violations", level="bounded_staleness"
            )
            == 1
        )


class TestTypedSchemeReads:
    def test_strong_reads_master(self):
        sim = Simulator(seed=1)
        group = make_group(sim, ship_interval=10.0)
        group.write_insert("order", "o-1", {"total": 4})
        result = group.read("order", "o-1", request=ReadRequest.strong())
        assert result.delivered_level is ConsistencyLevel.STRONG
        assert result.staleness == 0.0
        assert result.fields["total"] == 4

    def test_weaker_reads_slave_with_measured_staleness(self):
        sim = Simulator(seed=1)
        group = make_group(sim, ship_interval=10.0)
        group.write_insert("order", "o-1", {"total": 4})
        sim.run(until=5.0)  # written at t=0, not yet shipped
        result = group.read("order", "o-1", request=ReadRequest.eventual())
        assert result.delivered_level is ConsistencyLevel.EVENTUAL
        assert not result  # slave has no copy yet
        assert result.staleness == 5.0  # age of the oldest unshipped event
        sim.run(until=30.0)
        result = group.read("order", "o-1", request=ReadRequest.eventual())
        assert result.ok and result.staleness == 0.0

    def test_satellite_bound_enforced_on_eventual_path(self):
        sim = Simulator(seed=1, metrics=MetricsRegistry())
        group = make_group(sim, ship_interval=50.0)
        group.write_insert("order", "o-1", {"total": 4})
        sim.run(until=20.0)
        result = group.read(
            "order", "o-1", request=ReadRequest.bounded(5.0)
        )
        assert result.bound_violated  # 20 time units behind, bound was 5
        assert (
            sim.metrics.value(
                "read.staleness_violations", level="bounded_staleness"
            )
            >= 1
        )

    def test_loose_consistency_kwarg_removed(self):
        sim = Simulator(seed=1)
        group = make_group(sim)
        group.write_insert("order", "o-1", {"total": 4})
        # One deprecation cycle later, the loose keyword is gone: it
        # fails like any unknown keyword.
        with pytest.raises(TypeError):
            group.read("order", "o-1", consistency=ConsistencyLevel.STRONG)


class TestQuorumTypedReads:
    def test_strong_read_resolves_in_place(self):
        from repro.replication.quorum import QuorumGroup

        sim = Simulator(seed=2)
        net = Network(sim, latency=2.0)
        group = QuorumGroup(sim, net, ["q1", "q2", "q3"])
        group.write("stock", "w", {"n": 5})
        sim.run()
        result = group.read("stock", "w", request=ReadRequest.strong())
        assert result.delivered_level is None  # still in flight
        sim.run()
        assert result.delivered_level is ConsistencyLevel.STRONG
        assert result.value["n"] == 5

    def test_weak_read_is_immediate_and_local(self):
        from repro.replication.quorum import QuorumGroup

        sim = Simulator(seed=2)
        net = Network(sim, latency=2.0)
        group = QuorumGroup(sim, net, ["q1", "q2", "q3"])
        group.write("stock", "w", {"n": 5})
        sim.run()
        result = group.read("stock", "w", request=ReadRequest.eventual())
        assert result.delivered_level is ConsistencyLevel.EVENTUAL
        assert result.ok
