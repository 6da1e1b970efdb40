"""The overload front door: admission, backpressure, breakers, ladder."""

from __future__ import annotations

import pytest

from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import READ_LEVELS, ReadRequest, ReadResult, ReadSurface
from repro.errors import ReplicationError
from repro.frontdoor import (
    AdmissionController,
    BackpressureMonitor,
    BreakerState,
    CircuitBreaker,
    DegradeLadder,
    FrontDoor,
    Rung,
    TenantQuota,
    TokenBucket,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.scheduler import Simulator


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_dry(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert all(bucket.try_take() for _ in range(3))
        assert not bucket.try_take()

    def test_refills_with_virtual_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        for _ in range(4):
            bucket.try_take()
        clock.now = 1.0  # 2 tokens back
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()

    def test_infinite_rate_never_throttles(self):
        bucket = TokenBucket(
            rate=float("inf"), burst=float("inf"), clock=FakeClock()
        )
        assert all(bucket.try_take(100.0) for _ in range(50))

    def test_unmetered_take_reads_no_clock(self):
        clock = FakeClock()
        reads = []
        bucket = TokenBucket(
            rate=float("inf"),
            burst=float("inf"),
            clock=lambda: reads.append(1) or clock(),
        )
        reads.clear()  # the constructor stamps its creation time
        assert all(bucket.try_take(4.0) for _ in range(10))
        assert reads == [] and bucket.tokens == float("inf")

    def test_infinite_rate_still_meters_a_finite_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=float("inf"), burst=2.0, clock=clock)
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()  # same instant: the burst is spent
        clock.now = 0.5
        assert bucket.try_take()


class TestAdmissionController:
    def test_default_is_unmetered(self):
        admission = AdmissionController(FakeClock())
        assert all(admission.try_admit("anyone", 10.0) for _ in range(100))

    def test_tenant_quota_enforced(self):
        clock = FakeClock()
        admission = AdmissionController(
            clock, quotas={"mobile": TenantQuota(rate=1.0, burst=2.0)}
        )
        assert admission.try_admit("mobile", 1.0)
        assert admission.try_admit("mobile", 1.0)
        assert not admission.try_admit("mobile", 1.0)  # burst spent
        assert admission.try_admit("web", 1.0)  # other tenants unmetered
        clock.now = 5.0
        assert admission.try_admit("mobile", 1.0)  # refilled

    def test_throttle_metric(self):
        metrics = MetricsRegistry()
        admission = AdmissionController(
            FakeClock(),
            default_quota=TenantQuota(rate=0.0, burst=1.0),
            metrics=metrics,
        )
        admission.try_admit("t1", 1.0)
        admission.try_admit("t1", 1.0)
        assert metrics.value("frontdoor.throttled", tenant="t1") == 1


class TestBackpressureMonitor:
    def test_tripped_lists_hot_signals(self):
        depth = {"value": 0.0}
        monitor = BackpressureMonitor().add(
            "queue_depth", lambda: depth["value"], limit=10.0
        )
        assert monitor.tripped() == []
        depth["value"] = 11.0
        assert monitor.tripped() == ["queue_depth"]


class TestCircuitBreaker:
    def test_threshold_opens(self):
        clock = FakeClock()
        breaker = CircuitBreaker("unit", clock, failure_threshold=2)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker("unit", clock, failure_threshold=1)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 1000.0  # past the reset deadline
        assert breaker.allow()  # the half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens_with_backoff(self):
        clock = FakeClock()
        breaker = CircuitBreaker("unit", clock, failure_threshold=1)
        breaker.record_failure()
        first_deadline = breaker._retry_at.at
        clock.now = first_deadline + 1.0
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state is BreakerState.OPEN
        # Second open waits longer than the first (exponential reset).
        assert (breaker._retry_at.at - clock.now) > (first_deadline - 0.0)

    def test_health_probe_short_circuits(self):
        crashed = {"value": False}
        breaker = CircuitBreaker(
            "unit", FakeClock(), health=lambda: not crashed["value"]
        )
        assert breaker.allow()
        crashed["value"] = True
        assert not breaker.allow()


class FakeSurface(ReadSurface):
    """A copy holding ``value`` at ``level``; each serve first raises the
    next of ``errors``, if any are left."""

    def __init__(self, value="v", level=ConsistencyLevel.STRONG, staleness=0.0,
                 errors=()):
        self.value = value
        self.level = level
        self.staleness = staleness
        self.errors = list(errors)

    def serve(self, entity_type, entity_key, level, *, site=None):
        if self.errors:
            raise self.errors.pop(0)
        return self.value, self.level, self.staleness, "fake", ""


def make_rung(level, value="v", *, staleness=0.0, errors=(), **kwargs):
    surface = FakeSurface(value, level, staleness, errors)
    return Rung(level=level, surface=surface, **kwargs)


class TestDegradeLadder:
    def test_rungs_must_be_ordered(self):
        with pytest.raises(ValueError):
            DegradeLadder([
                make_rung(ConsistencyLevel.EVENTUAL),
                make_rung(ConsistencyLevel.STRONG),
            ])

    def test_candidates_never_stronger_than_asked(self):
        ladder = DegradeLadder([
            make_rung(ConsistencyLevel.STRONG),
            make_rung(ConsistencyLevel.EVENTUAL),
        ])
        levels = [
            rung.level for rung in ladder.candidates(ReadRequest.eventual())
        ]
        assert levels == [ConsistencyLevel.EVENTUAL]

    def test_no_degrade_pins_exact_level(self):
        ladder = DegradeLadder([
            make_rung(ConsistencyLevel.STRONG),
            make_rung(ConsistencyLevel.EVENTUAL),
        ])
        request = ReadRequest(
            level=ConsistencyLevel.STRONG, allow_degraded=False
        )
        levels = [rung.level for rung in ladder.candidates(request)]
        assert levels == [ConsistencyLevel.STRONG]

    def test_request_below_bottom_gets_bottom_rung(self):
        ladder = DegradeLadder([
            make_rung(ConsistencyLevel.STRONG),
            make_rung(ConsistencyLevel.EVENTUAL),
        ])
        request = ReadRequest(level=ConsistencyLevel.EXTRACT)
        levels = [rung.level for rung in ladder.candidates(request)]
        assert levels == [ConsistencyLevel.EVENTUAL]

    @pytest.mark.parametrize(
        "levels_and_costs",
        [
            [(ConsistencyLevel.STRONG, 4.0)],
            [(ConsistencyLevel.EVENTUAL, 1.0)],
            [(ConsistencyLevel.STRONG, 4.0), (ConsistencyLevel.EVENTUAL, 1.0)],
            [
                (ConsistencyLevel.BOUNDED_STALENESS, 1.0),
                (ConsistencyLevel.EXTRACT, 3.0),
            ],
            [
                (ConsistencyLevel.STRONG, 4.0),
                (ConsistencyLevel.BOUNDED_STALENESS, 2.0),
                (ConsistencyLevel.EVENTUAL, 1.0),
            ],
        ],
        ids=["strong", "eventual", "strong+eventual", "bounded+extract", "three"],
    )
    def test_plan_table_equals_per_read_derivation(self, levels_and_costs):
        """The door reads ``plan(request)`` from a table built once; the
        reference is what it used to derive on every read."""
        rungs = [make_rung(level, cost=cost) for level, cost in levels_and_costs]
        ladder = DegradeLadder(rungs)
        assert ladder.rungs == tuple(rungs)

        strength = {
            ConsistencyLevel.STRONG: 0,
            ConsistencyLevel.BOUNDED_STALENESS: 1,
            ConsistencyLevel.EVENTUAL: 2,
            ConsistencyLevel.TENTATIVE: 3,
            ConsistencyLevel.EXTRACT: 4,
        }

        def reference(request):
            wanted = strength[request.level]
            eligible = [r for r in rungs if strength[r.level] >= wanted]
            if not request.allow_degraded:
                return [r for r in eligible if strength[r.level] == wanted]
            return eligible or [rungs[-1]]

        for level in ConsistencyLevel:
            for allow_degraded in (True, False):
                request = ReadRequest(level=level, allow_degraded=allow_degraded)
                expected = reference(request)
                candidates, cost = ladder.plan(request)
                assert ladder.candidates(request) == expected
                assert len(candidates) == len(expected)
                assert all(a is b for a, b in zip(candidates, expected))
                if expected:
                    assert cost == min(rung.cost for rung in expected)

    def test_rung_refuses_beyond_declared_bound(self):
        rung = make_rung(
            ConsistencyLevel.BOUNDED_STALENESS,
            staleness=50.0,
            declared_bound=10.0,
        )
        assert rung.serve("order", "o-1", ReadRequest.bounded(10.0)) is None
        assert rung.bound_refusals == 1


def make_door(sim, rungs, **kwargs):
    return FrontDoor(sim, DegradeLadder(rungs), **kwargs)


class TestFrontDoor:
    def test_serves_at_requested_level(self):
        sim = Simulator(seed=1, metrics=MetricsRegistry())
        door = make_door(sim, [
            make_rung(ConsistencyLevel.STRONG),
            make_rung(ConsistencyLevel.EVENTUAL),
        ])
        result = door.read("order", "o-1", request=ReadRequest.strong())
        assert result.ok and not result.degraded
        assert result.delivered_level is ConsistencyLevel.STRONG

    def test_dry_strong_rung_degrades_with_apology(self):
        sim = Simulator(seed=1, metrics=MetricsRegistry())
        clock = lambda: sim.now
        strong = make_rung(
            ConsistencyLevel.STRONG,
            capacity=TokenBucket(0.0, 1.0, clock),
        )
        door = make_door(sim, [strong, make_rung(ConsistencyLevel.EVENTUAL)])
        first = door.read("order", "o-1", request=ReadRequest.strong())
        assert first.delivered_level is ConsistencyLevel.STRONG
        second = door.read("order", "o-1", request=ReadRequest.strong())
        assert second.ok and second.degraded
        assert second.delivered_level is ConsistencyLevel.EVENTUAL
        assert second.apology["reason"] == "degraded_read"
        assert door.degraded_serves == 1
        assert (
            sim.metrics.value(
                "frontdoor.degraded", requested="strong", delivered="eventual"
            )
            == 1
        )

    def test_backpressure_sheds_strong_rung(self):
        sim = Simulator(seed=1, metrics=MetricsRegistry())
        monitor = BackpressureMonitor().add("queue_depth", lambda: 99.0, 10.0)
        door = make_door(
            sim,
            [
                make_rung(ConsistencyLevel.STRONG),
                make_rung(ConsistencyLevel.EVENTUAL),
            ],
            backpressure=monitor,
        )
        result = door.read("order", "o-1", request=ReadRequest.strong())
        assert result.degraded
        assert result.delivered_level is ConsistencyLevel.EVENTUAL
        assert sim.metrics.value("frontdoor.shed", reason="queue_depth") == 1

    def test_quota_exhaustion_rejects(self):
        sim = Simulator(seed=1, metrics=MetricsRegistry())
        admission = AdmissionController(
            lambda: sim.now,
            default_quota=TenantQuota(rate=0.0, burst=1.0),
            metrics=sim.metrics,
        )
        door = make_door(
            sim, [make_rung(ConsistencyLevel.EVENTUAL)], admission=admission
        )
        assert door.read("order", "o-1", request=ReadRequest.eventual()).ok
        rejected = door.read("order", "o-1", request=ReadRequest.eventual())
        assert rejected.rejected and rejected.reject_reason == "quota"
        assert rejected.apology == {"reason": "rejected_quota"}

    def test_expired_deadline_rejects(self):
        from repro.core.policy import Deadline

        sim = Simulator(seed=1)
        door = make_door(sim, [make_rung(ConsistencyLevel.STRONG)])
        sim.schedule(10.0, lambda: None)
        sim.run()
        request = ReadRequest(
            level=ConsistencyLevel.STRONG, deadline=Deadline(at=5.0)
        )
        result = door.read("order", "o-1", request=request)
        assert result.rejected and result.reject_reason == "deadline"

    def test_every_rung_refusing_is_saturated(self):
        sim = Simulator(seed=1)
        clock = lambda: sim.now
        door = make_door(sim, [
            make_rung(
                ConsistencyLevel.EVENTUAL,
                capacity=TokenBucket(0.0, 0.0, clock),
            ),
        ])
        result = door.read("order", "o-1", request=ReadRequest.eventual())
        assert result.rejected and result.reject_reason == "saturated"

    def test_breaker_failure_path(self):
        sim = Simulator(seed=1)
        breaker = CircuitBreaker("strong", lambda: sim.now, failure_threshold=2)
        broken = make_rung(
            ConsistencyLevel.STRONG,
            errors=[ReplicationError("replica down")] * 3,
            breaker=breaker,
        )
        door = make_door(sim, [broken, make_rung(ConsistencyLevel.EVENTUAL)])
        for _ in range(2):
            result = door.read("order", "o-1", request=ReadRequest.strong())
            assert result.degraded  # fell through to the eventual rung
        assert breaker.state is BreakerState.OPEN
        # With the breaker open the failing reader is not even attempted.
        result = door.read("order", "o-1", request=ReadRequest.strong())
        assert result.delivered_level is ConsistencyLevel.EVENTUAL


    def test_quota_set_after_build_still_throttles(self):
        sim = Simulator(seed=1)
        door = make_door(sim, [make_rung(ConsistencyLevel.EVENTUAL)])
        eventual = ReadRequest.eventual(tenant="t")
        assert door.read("order", "o-1", request=eventual).ok
        door.admission.set_quota("t", TenantQuota(rate=0.0, burst=1.0))
        assert door.read("order", "o-1", request=eventual).ok
        result = door.read("order", "o-1", request=eventual)
        assert result.rejected and result.reject_reason == "quota"

    def test_signal_added_after_build_still_sheds_the_strong_rung(self):
        sim = Simulator(seed=1)
        door = make_door(sim, [
            make_rung(ConsistencyLevel.STRONG),
            make_rung(ConsistencyLevel.EVENTUAL),
        ])
        strong = ReadRequest.strong()
        assert door.read("order", "o-1", request=strong).delivered_level is (
            ConsistencyLevel.STRONG
        )
        door.backpressure.add("load", lambda: 2.0, limit=1.0)
        result = door.read("order", "o-1", request=strong)
        assert result.degraded
        assert result.delivered_level is ConsistencyLevel.EVENTUAL

    def test_success_after_a_sub_threshold_failure_clears_it(self):
        sim = Simulator(seed=1)
        breaker = CircuitBreaker("strong", lambda: sim.now, failure_threshold=3)
        strong = make_rung(
            ConsistencyLevel.STRONG,
            errors=[ReplicationError("blip")],
            breaker=breaker,
        )
        door = make_door(sim, [strong, make_rung(ConsistencyLevel.EVENTUAL)])
        assert door.read("order", "o-1", request=ReadRequest.strong()).degraded
        assert breaker.failures == 1 and breaker.state is BreakerState.CLOSED
        result = door.read("order", "o-1", request=ReadRequest.strong())
        assert result.delivered_level is ConsistencyLevel.STRONG
        assert breaker.failures == 0

    def test_half_open_probe_that_succeeds_closes_the_breaker(self):
        sim = Simulator(seed=1)
        breaker = CircuitBreaker("strong", lambda: sim.now, failure_threshold=1)
        strong = make_rung(
            ConsistencyLevel.STRONG,
            errors=[ReplicationError("down")],
            breaker=breaker,
        )
        door = make_door(sim, [strong, make_rung(ConsistencyLevel.EVENTUAL)])
        assert door.read("order", "o-1", request=ReadRequest.strong()).degraded
        assert breaker.state is BreakerState.OPEN
        sim.run(until=1_000.0)  # past the reset deadline: the next read probes
        result = door.read("order", "o-1", request=ReadRequest.strong())
        assert result.delivered_level is ConsistencyLevel.STRONG
        assert breaker.state is BreakerState.CLOSED and breaker.failures == 0


def master_slave_door_cluster(*, traced: bool = False, replicas: int = 3):
    from repro import Cluster

    builder = Cluster.build(seed=7)
    if traced:
        builder = builder.with_tracing()
    return (
        builder.with_network(latency=2.0)
        .with_replicas(replicas, mode="master_slave", ship_interval=10.0)
        .with_front_door()
        .create()
    )


def test_a_surface_programming_error_propagates_and_spares_the_breakers():
    """Only a :class:`~repro.errors.ReproError` is an unavailable copy; a
    bug in a surface is not answered as a degraded read and opens no
    breaker."""
    cluster = master_slave_door_cluster()
    cluster.replication.write_insert("order", "o-1", {"total": 4})

    def broken(*_args, **_kwargs):
        raise AttributeError("no such attribute")

    cluster.replication.serve = broken
    for _ in range(4):
        with pytest.raises(AttributeError):
            cluster.read("order", "o-1", request=ReadRequest.strong())
    ladder = cluster.front_door.ladder
    assert [rung["breaker"] for rung in ladder.describe()] == [
        "closed", "closed", None
    ]
    assert all(
        rung.breaker.failures == 0 for rung in ladder.rungs if rung.breaker
    )


def test_a_traced_door_decides_exactly_as_an_untraced_one():
    def run(traced):
        cluster = master_slave_door_cluster(traced=traced)
        scheme = cluster.replication
        answers = []
        requests = [
            ReadRequest.strong(), ReadRequest.bounded(5.0), ReadRequest.eventual()
        ]
        for step in range(30):
            scheme.write_insert("order", f"o-{step % 4}", {"total": step})
            if step == 20:
                scheme.master.crash()
            cluster.sim.run(until=3.0 * step + 1.0)
            for request in requests:
                result = cluster.read("order", f"o-{step % 5}", request=request)
                answers.append((
                    result.value, result.delivered_level, result.staleness,
                    result.degraded, result.rejected, result.served_by,
                ))
        door = cluster.front_door
        counts = (door.reads, door.rejects, door.degraded_serves)
        return answers, counts, door.ladder.describe()

    untraced, traced = run(False), run(True)
    assert traced == untraced
    assert untraced[1][2] > 0  # the crash made the door degrade


class TestForCluster:
    def make_cluster(self, **door_kwargs):
        from repro import Cluster

        return (
            Cluster.build(seed=7)
            .with_tracing()
            .with_network(latency=2.0)
            .with_replicas(2, mode="master_slave", ship_interval=10.0)
            .with_front_door(**door_kwargs)
            .create()
        )

    def test_builder_wires_a_door(self):
        cluster = self.make_cluster()
        assert cluster.front_door is not None
        levels = [rung.level for rung in cluster.front_door.ladder.rungs]
        assert levels == [
            ConsistencyLevel.STRONG,
            ConsistencyLevel.BOUNDED_STALENESS,
            ConsistencyLevel.EVENTUAL,
        ]

    def test_cluster_read_routes_via_door(self):
        cluster = self.make_cluster()
        cluster.replication.write_insert("order", "o-1", {"total": 4})
        result = cluster.read(
            "order", "o-1", request=ReadRequest.strong()
        )
        assert isinstance(result, ReadResult)
        assert result.delivered_level is ConsistencyLevel.STRONG
        assert result.fields["total"] == 4
        assert cluster.front_door.reads == 1

    def test_untyped_cluster_read_goes_through_the_door_too(self):
        cluster = self.make_cluster()
        cluster.replication.write_insert("order", "o-1", {"total": 4})
        result = cluster.read("order", "o-1")
        assert result.delivered_level is ConsistencyLevel.STRONG
        assert cluster.front_door.reads == 1

    def test_weaker_than_bottom_request_is_not_a_downgrade(self):
        cluster = self.make_cluster()
        cluster.replication.write_insert("order", "o-1", {"total": 4})
        result = cluster.read(
            "order", "o-1", request=ReadRequest(level=ConsistencyLevel.EXTRACT)
        )
        assert result.delivered_level is ConsistencyLevel.EVENTUAL
        assert not result.degraded and result.apology is None
        assert cluster.front_door.degraded_serves == 0

    def test_active_active_strong_is_served_eventual_with_apology(self):
        from repro import Cluster

        cluster = (
            Cluster.build(seed=1)
            .with_replicas(3, mode="active_active")
            .with_front_door()
            .create()
        )
        cluster.replication.write_insert("r1", "order", "o-1", {"total": 5})
        result = cluster.read("order", "o-1", request=ReadRequest.strong())
        # No strong copy exists: the door says what the scheme says.
        assert result.delivered_level is ConsistencyLevel.EVENTUAL
        assert result.degraded and result.apology is not None
        assert result.fields["total"] == 5

    def test_quorum_strong_refuses_and_bounded_rung_serves_the_value(self):
        from repro import Cluster

        cluster = (
            Cluster.build(seed=1)
            .with_replicas(3, mode="quorum")
            .with_front_door()
            .create()
        )
        cluster.replication.write("order", "o-1", {"total": 5})
        cluster.sim.run(until=50.0)
        result = cluster.read("order", "o-1", request=ReadRequest.strong())
        # A quorum answers later and a rung answers now: never a
        # forever-pending ``ReadResult(None, delivered=strong)``.
        assert result.delivered_level is ConsistencyLevel.BOUNDED_STALENESS
        assert result.degraded and result.apology is not None
        assert result.fields["total"] == 5

    def test_crashed_master_degrades_to_replica(self):
        cluster = self.make_cluster(bounded_staleness=100.0)
        cluster.replication.write_insert("order", "o-1", {"total": 4})
        cluster.sim.run(until=30.0)  # shipped to the slave
        cluster.replication.master.crash()
        result = cluster.read("order", "o-1", request=ReadRequest.strong())
        assert result.ok and result.degraded
        assert result.delivered_level is ConsistencyLevel.BOUNDED_STALENESS
        assert result.fields["total"] == 4


# ---------------------------------------------------------------------- #
# A rung exists only for a level its surface declares
# ---------------------------------------------------------------------- #

def flat_door_cluster(mode: str, **door_kwargs):
    from repro import Cluster

    return (
        Cluster.build(seed=5)
        .with_network(latency=2.0)
        .with_replicas(3, mode=mode)
        .with_front_door(**door_kwargs)
        .create()
    )


def flat_write(cluster, key: str, total: int) -> None:
    from repro.replication.quorum import QuorumGroup

    scheme = cluster.replication
    if isinstance(scheme, QuorumGroup):
        scheme.write("order", key, {"total": total})
    else:
        scheme.write_insert("r2", "order", key, {"total": total})


def breakers_of(door) -> list[CircuitBreaker]:
    return [rung.breaker for rung in door.ladder.rungs if rung.breaker]


@pytest.mark.parametrize("mode", ["quorum", "active_active"])
def test_a_fault_free_door_never_trips_a_breaker(mode):
    """No rung promises a level its surface never offered, so a healthy
    cluster's reads record no breaker failure at any level (a bounded
    rung may still refuse a copy past its bound, which is no failure);
    a request above what the scheme declares is a degraded read with an
    apology."""
    cluster = flat_door_cluster(mode)
    declared = cluster.replication.levels
    door = cluster.front_door
    assert [rung.level for rung in door.ladder.rungs] == [
        level for level in READ_LEVELS if level in declared
    ]
    for step in range(12):
        flat_write(cluster, f"o-{step % 3}", step)
        cluster.sim.run(until=10.0 * (step + 1))
        for level in READ_LEVELS:
            result = cluster.read(
                "order", f"o-{step % 3}", request=ReadRequest(level=level)
            )
            assert result.ok and result.delivered_level in declared
            assert (result.apology is not None) == result.degraded
            if level not in declared:
                assert result.degraded
            for breaker in breakers_of(door):
                assert breaker.state is BreakerState.CLOSED
                assert breaker.failures == 0
    assert all(breaker.opens == 0 for breaker in breakers_of(door))


def test_a_strict_read_above_every_declared_level_is_rejected_first():
    """A quorum declares no STRONG: a STRONG read that forbids degrading
    is rejected ``no_rung`` before admission charges or a breaker
    hears of it."""
    cluster = flat_door_cluster(
        "quorum", default_quota=TenantQuota(rate=0.0, burst=4.0)
    )
    flat_write(cluster, "o-1", 5)
    cluster.sim.run(until=50.0)
    strict = ReadRequest.strong(allow_degraded=False)

    result = cluster.read("order", "o-1", request=strict)

    assert result.rejected and result.reject_reason == "no_rung"
    assert all(breaker.failures == 0 for breaker in breakers_of(cluster.front_door))
    # The whole burst is still there: two BOUNDED reads at cost 2 each.
    bounded = ReadRequest.bounded(1000.0, allow_degraded=False)
    for _ in range(2):
        served = cluster.read("order", "o-1", request=bounded)
        assert served.ok and served.fields["total"] == 5
    assert cluster.read("order", "o-1", request=bounded).reject_reason == "quota"


def test_a_store_only_door_serves_bounded_at_bounded():
    from repro import Cluster

    cluster = Cluster.build(seed=1).with_store().with_front_door().create()
    cluster.store.insert("order", "o-1", {"total": 4})
    assert [rung.level for rung in cluster.front_door.ladder.rungs] == list(READ_LEVELS)

    result = cluster.read("order", "o-1", request=ReadRequest.bounded(5.0))

    assert result.delivered_level is ConsistencyLevel.BOUNDED_STALENESS
    assert result.staleness == 0.0 and not result.degraded
    assert result.apology is None and result.fields["total"] == 4


def test_a_compensation_ledger_records_the_doors_apologies():
    from repro import Cluster

    cluster = (
        Cluster.build(seed=1)
        .with_replicas(2, mode="master_slave", ship_interval=10.0)
        .with_compensation()
        .with_front_door()
        .create()
    )
    cluster.replication.write_insert("order", "o-1", {"total": 4})
    cluster.sim.run(until=30.0)
    cluster.replication.master.crash()

    result = cluster.read("order", "o-1", request=ReadRequest.strong())

    assert result.degraded
    assert cluster.compensation.ledger.all() == [result.apology]
    assert result.apology.reason == "degraded_read"


def test_a_rebalance_in_progress_sheds_the_strong_rung():
    from repro import Cluster

    cluster = (
        Cluster.build(seed=11)
        .with_ring("u1", "u2", "u3", vnodes=32, batch_size=8)
        .with_replicas(2, mode="master_slave", ship_interval=10.0)
        .with_front_door()
        .create()
    )
    for index in range(30):
        key = f"k{index}"
        owner = cluster.directory.unit_for("order", key)
        cluster.units[owner].store.insert("order", key, {"n": index})
    cluster.replication.write_insert("order", "o-1", {"total": 4})
    cluster.sim.run(until=30.0)
    strong = ReadRequest.strong()

    run = cluster.scale_out("u4")
    during = cluster.read("order", "o-1", request=strong)
    run.wait()
    after = cluster.read("order", "o-1", request=strong)

    assert during.degraded
    assert during.delivered_level is ConsistencyLevel.BOUNDED_STALENESS
    assert after.delivered_level is ConsistencyLevel.STRONG and not after.degraded
    assert cluster.rebalancer.runs == [run]
