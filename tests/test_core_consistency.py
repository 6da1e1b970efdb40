"""Tests for consistency metadata: the per-entity-type default request.

A cluster declares one :class:`ConsistencyPolicy` per data class
(``with_consistency``); ``Cluster.read`` turns the entity type's policy
into the request whenever the caller passes none, and the read then
takes the one read path — the front door, the scheme, or the warehouse
for ``EXTRACT``.
"""

from __future__ import annotations

import pytest

from repro import Cluster
from repro.core.consistency import ConsistencyLevel, ConsistencyPolicy
from repro.core.readpath import ReadRequest
from repro.errors import ConsistencyPolicyError

STRONG = ConsistencyLevel.STRONG
BOUNDED = ConsistencyLevel.BOUNDED_STALENESS
EVENTUAL = ConsistencyLevel.EVENTUAL
EXTRACT = ConsistencyLevel.EXTRACT
BOUND = 2.0
POLICIES = (
    ConsistencyPolicy("stock", STRONG, rationale="fulfilment must not oversell"),
    ConsistencyPolicy(
        "order", BOUNDED, rationale="entry reads tolerate shipping lag",
        max_staleness=BOUND,
    ),
    ConsistencyPolicy("report", EXTRACT, rationale="analytics run on extracts"),
)
DOOR = pytest.mark.parametrize("door", [False, True], ids=["scheme", "front_door"])


def build(door: bool = False):
    """Master/slave (ships every 10) plus a warehouse (extracts every
    30), with the three policies above."""
    builder = (
        Cluster.build(seed=3)
        .with_tracing()
        .with_network(latency=2.0)
        .with_replicas(2, mode="master_slave", ship_interval=10.0)
        .with_warehouse(interval=30.0)
        .with_consistency(*POLICIES)
    )
    if door:
        builder = builder.with_front_door()
    cluster = builder.create()
    for entity_type in ("stock", "order", "report", "misc"):
        cluster.replication.write_insert(entity_type, "k", {"n": 1})
    return cluster


class TestPolicies:
    def test_policy_requires_rationale(self):
        with pytest.raises(ConsistencyPolicyError):
            ConsistencyPolicy("order", ConsistencyLevel.EVENTUAL, rationale="")

    def test_second_policy_for_one_type_is_rejected(self):
        again = ConsistencyPolicy("order", STRONG, rationale="changed our mind")
        with pytest.raises(ConsistencyPolicyError, match="'order'"):
            Cluster.build().with_consistency(*POLICIES, again)

    def test_explicit_policy_wins_over_default(self):
        cluster = build()
        assert cluster.default_requests == {
            "stock": ReadRequest(level=STRONG),
            "order": ReadRequest.bounded(BOUND),
            "report": ReadRequest(level=EXTRACT),
        }
        assert Cluster.build().create().default_requests == {}


class TestRouting:
    def test_reads_route_by_policy(self):
        cluster = build()
        cluster.sim.run(until=35.0)  # shipped and extracted
        stamps = {
            entity_type: (result.delivered_level, result.served_by, result.fields)
            for entity_type in ("stock", "order", "report")
            for result in [cluster.read(entity_type, "k")]
        }
        assert stamps == {
            "stock": (STRONG, "master", {"n": 1}),
            "order": (BOUNDED, "slave-1", {"n": 1}),
            "report": (EXTRACT, "warehouse", {"n": 1}),
        }

    @DOOR
    def test_policy_level_and_bound_apply_without_a_request(self, door):
        cluster = build(door)
        target = cluster.front_door if door else cluster.replication
        seen = []
        read = target.read

        def recording(entity_type, entity_key, *, request, **kwargs):
            seen.append(request)
            return read(entity_type, entity_key, request=request, **kwargs)

        target.read = recording
        result = cluster.read("order", "k")
        assert seen == [ReadRequest.bounded(BOUND)]
        assert result.requested_level is BOUNDED
        assert result.delivered_level is BOUNDED

    @DOOR
    def test_explicit_request_overrides_the_table(self, door):
        cluster = build(door)
        result = cluster.read("stock", "k", request=ReadRequest.eventual())
        assert result.requested_level is EVENTUAL
        assert result.delivered_level is EVENTUAL

    @DOOR
    def test_unlisted_type_reads_strong(self, door):
        cluster = build(door)
        result = cluster.read("misc", "k")
        assert result.requested_level is STRONG
        assert result.delivered_level is STRONG
        assert result.served_by == "master" and result.fields == {"n": 1}

    def test_bounded_policy_violation_is_stamped_and_counted_once(self):
        cluster = build()
        cluster.sim.run(until=5.0)  # the slave has shipped nothing yet
        result = cluster.read("order", "k")
        assert result.staleness == 5.0 > BOUND
        assert result.bound_violated and not result.degraded
        assert cluster.metrics.sum_values("read.staleness_violations") == 1
        assert cluster.metrics.value(
            "read.staleness_violations", level=BOUNDED.value
        ) == 1

    def test_extract_is_served_by_the_warehouse(self):
        cluster = build()
        before = cluster.read("report", "k")
        assert not before  # no extract taken yet
        assert before.served_by == "warehouse"
        assert before.staleness == float("inf")
        cluster.sim.run(until=35.0)
        after = cluster.read("report", "k")
        assert after.fields == {"n": 1}
        assert after.delivered_level is EXTRACT and after.staleness == 0.0
        assert cluster.warehouse.extracts_taken == 1
