"""The front door: admission, backpressure, breakers, and the ladder.

One object in front of the cluster's read surfaces that embodies the
paper's overload posture: **admit what fits, degrade what doesn't,
reject only when even the weakest rung refuses** — and stamp every
response with the truth (delivered level, measured staleness, apology
token when the answer is weaker than asked).

The flow of :meth:`FrontDoor.read`:

1. expired deadline → reject (``deadline``) — serving a dead request
   is work the requester will never see;
2. admission — charge the tenant's token bucket the cheapest eligible
   rung's cost; a throttled tenant is rejected (``quota``), and a
   request no rung may serve (``no_rung``), before any replica is
   touched;
3. walk the :class:`~repro.frontdoor.ladder.DegradeLadder` from the
   requested level down: skip rungs whose breaker is open or whose
   capacity bucket is dry; when backpressure has tripped, skip the
   strong rung outright (shedding by downgrade, the headline valve);
4. the first rung that serves wins; a degraded serve records an
   apology token on the result (and in the ledger, when one is wired);
5. nothing served → reject (``saturated``).

Everything is counted in ``frontdoor.*`` metrics and optionally traced
as ``frontdoor.read`` spans.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import ReadRequest, ReadResult
from repro.frontdoor.admission import AdmissionController, TenantQuota, TokenBucket
from repro.frontdoor.backpressure import BackpressureMonitor
from repro.frontdoor.breaker import BreakerBoard
from repro.frontdoor.ladder import DegradeLadder, Rung
from repro.replication.geo import GeoReplicaGroup


class FrontDoor:
    """Admission-controlled, degrading read path over a ladder.

    Args:
        sim: The simulator (clock + metrics + tracer source).
        ladder: The :class:`DegradeLadder` to serve from.
        admission: Per-tenant admission control; default admits all.
        backpressure: Overload monitor; default has no signals.
        apologies: Optional
            :class:`~repro.core.compensation.ApologyLedger`; every
            degraded serve records an apology ("served you stale data,
            here is how stale") and the token rides on the result.
    """

    def __init__(
        self,
        sim,
        ladder: DegradeLadder,
        admission: Optional[AdmissionController] = None,
        backpressure: Optional[BackpressureMonitor] = None,
        apologies=None,
    ):
        self.sim = sim
        self.ladder = ladder
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(lambda: sim.now, metrics=sim.metrics)
        )
        self.backpressure = (
            backpressure
            if backpressure is not None
            else BackpressureMonitor(metrics=sim.metrics)
        )
        self.apologies = apologies
        self.metrics = sim.metrics
        self.tracer = sim.tracer
        #: The datacenter this door fronts (:meth:`for_cluster`'s
        #: ``site``); every rung serves for it.
        self.site: Optional[str] = None
        self.reads = 0
        self.rejects = 0
        self.degraded_serves = 0

    # ------------------------------------------------------------------ #
    # The read path
    # ------------------------------------------------------------------ #

    def read(
        self,
        entity_type: str,
        entity_key: str,
        *,
        request: Optional[ReadRequest] = None,
    ) -> ReadResult:
        """Serve one read through the valve chain; always returns a
        :class:`ReadResult` (rejections come back with
        ``rejected=True`` and a reason, never as exceptions).

        An idle valve costs an attribute test, not a call: backpressure
        with no signals is not probed, and an unmetered tenant's bucket
        is not charged."""
        if request is None:
            request = ReadRequest()
        self.reads += 1
        tracer = self.tracer
        span = (
            tracer.start_span(
                "frontdoor.read",
                entity=f"{entity_type}/{entity_key}",
                level=request.level.value,
                tenant=request.tenant or "default",
            )
            if tracer is not None
            else None
        )
        result = None
        deadline = request.deadline
        if deadline is not None and deadline.expired(self.sim.now):
            reason = "deadline"
        else:
            # Admission charges the *cheapest* eligible rung: a tenant
            # out of strong-read budget can still afford the degraded
            # rungs, so quota pressure pushes traffic down the ladder
            # before it ever rejects.
            candidates, cost = self.ladder.plans[request.level.strength][
                request.allow_degraded
            ]
            if not candidates:
                reason = "no_rung"
            elif not self.admission.try_admit(request.tenant, cost):
                reason = "quota"
            else:
                reason = "saturated"
                backpressure = self.backpressure
                overloaded = backpressure.tripped() if backpressure.signals else ()
                for rung in candidates:
                    if (
                        overloaded
                        and rung.level is ConsistencyLevel.STRONG
                        and len(candidates) > 1
                    ):
                        # Backpressure sheds the strong rung (when a
                        # weaker one exists to shed onto); the breakers
                        # and capacity buckets below handle the rest.
                        self._count("frontdoor.shed", reason=overloaded[0])
                        continue
                    breaker = rung.breaker
                    if breaker is not None and not breaker.allow():
                        continue
                    result = rung.serve(entity_type, entity_key, request, self.site)
                    if result is not None:
                        break
        if result is None:
            result = self._reject(request, reason)
        else:
            metrics = self.metrics
            # Labels (``.value`` is a Python-level descriptor) are only
            # built for a registry that will take them.
            if metrics is not None:
                served = rung.level.value
                metrics.counter("frontdoor.served", level=served).inc()
                if result.staleness is not None:
                    metrics.histogram(
                        "frontdoor.staleness", level=served
                    ).record(result.staleness)
            if result.degraded:
                self.degraded_serves += 1
                if metrics is not None:
                    metrics.counter(
                        "frontdoor.degraded",
                        requested=request.level.value,
                        delivered=rung.level.value,
                    ).inc()
                result.apology = self._apologize(
                    entity_type, entity_key, request, result
                )
        if span is not None:
            status = "rejected" if result.rejected else (
                "degraded" if result.degraded else "served"
            )
            tracer.end_span(span, status=status)
        return result

    # ------------------------------------------------------------------ #
    # Outcomes
    # ------------------------------------------------------------------ #

    def _reject(self, request: ReadRequest, reason: str) -> ReadResult:
        self.rejects += 1
        self._count("frontdoor.rejected", reason=reason)
        result = ReadResult(
            None,
            requested_level=request.level,
            delivered_level=None,
            staleness=None,
            rejected=True,
            reject_reason=reason,
        )
        result.apology = self._apologize_reject(request, reason)
        return result

    def _apologize(
        self,
        entity_type: str,
        entity_key: str,
        request: ReadRequest,
        result: ReadResult,
    ) -> Any:
        """The apology-token hook: a degraded serve owes the caller an
        explanation (paper section 3.2 — apologies must be
        comprehensible)."""
        delivered = (
            result.delivered_level.value if result.delivered_level else "none"
        )
        if self.apologies is not None:
            return self.apologies.record(
                to_party=request.tenant or "default",
                reason="degraded_read",
                at=self.sim.now,
                related_op=f"read {entity_type}/{entity_key}",
                compensation=(
                    f"served {delivered} (staleness {result.staleness}) "
                    f"instead of {request.level.value}"
                ),
            )
        return {
            "reason": "degraded_read",
            "requested": request.level.value,
            "delivered": delivered,
            "staleness": result.staleness,
        }

    def _apologize_reject(self, request: ReadRequest, reason: str) -> Any:
        if self.apologies is not None:
            return self.apologies.record(
                to_party=request.tenant or "default",
                reason=f"rejected_{reason}",
                at=self.sim.now,
                compensation="retry later",
            )
        return {"reason": f"rejected_{reason}"}

    def _count(self, name: str, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc()

    # ------------------------------------------------------------------ #
    # Construction over a cluster
    # ------------------------------------------------------------------ #

    @classmethod
    def for_cluster(
        cls,
        cluster,
        *,
        quotas: Optional[dict[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        bounded_staleness: Optional[float] = None,
        queue_depth_limit: Optional[float] = None,
        lag_limit_events: Optional[float] = None,
        strong_capacity: Optional[float] = None,
        bounded_capacity: Optional[float] = None,
        breaker_threshold: int = 3,
        breaker_reset=None,
        apologies=None,
        site: Optional[str] = None,
    ) -> "FrontDoor":
        """Wire a door over whatever the cluster was built with.

        The cluster's read surface — the replication scheme, else the
        store — gets one rung per level it declares
        (:attr:`~repro.core.readpath.ReadSurface.levels`), ``serve``-d
        at the rung's level; a copy that holds less than that right now
        makes the rung refuse and the walk go on.  An undeclared level
        has no rung: a request for it degrades, or is rejected
        ``no_rung`` when it may not:

        * **STRONG** — master / primary / home replica; breaker on the
          surface's STRONG :meth:`~repro.core.readpath.ReadSurface.health`
          probe, optional capacity bucket (``strong_capacity``);
        * **BOUNDED_STALENESS** — the follower copy; breaker on the
          BOUNDED probe; refuses above ``bounded_staleness`` (default:
          twice the surface's ``ship_interval``, else 100 time units);
        * **EVENTUAL** — on a flat cluster the cheapest copy that never
          says no: the warehouse extract, else the primary store's
          latest rollup checkpoint, else the store itself.

        On a geo-replicated cluster the door is additionally *sited*:
        ``site`` names the datacenter this door fronts, and every rung
        — the eventual one included — asks the group, which prefers a
        site-local replica before crossing the WAN; the bounded rung
        gates the measured cross-DC staleness against the declared
        bound, and the breakers watch the site gateways.

        Backpressure signals are registered for ``queue_depth_limit``
        (over ``sim.pending``), ``lag_limit_events`` (over the scheme's
        replication-lag view) and — when the cluster has a rebalancer —
        rebalance-in-progress.  ``apologies`` defaults to the cluster's
        compensation ledger, when it has one.
        """
        sim = cluster.sim
        scheme = cluster.replication
        surface = scheme if scheme is not None else cluster.store
        if surface is None:
            raise ValueError("front door needs a readable surface")
        clock = lambda: sim.now
        board = BreakerBoard(
            clock,
            metrics=sim.metrics,
            failure_threshold=breaker_threshold,
            reset=breaker_reset,
        )
        rungs = _rungs(
            cluster,
            surface,
            clock=clock,
            board=board,
            bounded_staleness=bounded_staleness,
            strong_capacity=strong_capacity,
            bounded_capacity=bounded_capacity,
        )

        monitor = BackpressureMonitor(metrics=sim.metrics)
        if queue_depth_limit is not None:
            monitor.add(
                "queue_depth", lambda: float(sim.pending), queue_depth_limit
            )
        if lag_limit_events is not None and surface.replication_lag_events is not None:
            monitor.add(
                "replication_lag",
                lambda: float(surface.replication_lag_events),
                lag_limit_events,
            )
        rebalancer = cluster.rebalancer
        if rebalancer is not None:
            monitor.add(
                "rebalance",
                lambda: 1.0 if any(not run.done for run in rebalancer.runs) else 0.0,
                0.5,
            )

        admission = AdmissionController(
            clock,
            default_quota=default_quota,
            quotas=quotas,
            metrics=sim.metrics,
        )
        if apologies is None and cluster.compensation is not None:
            apologies = cluster.compensation.ledger
        door = cls(
            sim,
            DegradeLadder(rungs),
            admission=admission,
            backpressure=monitor,
            apologies=apologies,
        )
        door.site = site
        return door


# ---------------------------------------------------------------------- #
# Rung assembly
# ---------------------------------------------------------------------- #


def _rungs(
    cluster,
    surface,
    *,
    clock,
    board,
    bounded_staleness,
    strong_capacity,
    bounded_capacity,
) -> list:
    """One rung per level the cluster's read ``surface`` declares, each
    serving the surface at its level, except a flat cluster's bottom
    rung, which reads the cheapest copy."""
    strong_health, bounded_health = surface.health()
    if bounded_staleness is None:
        ship = surface.ship_interval
        bounded_staleness = 2.0 * ship if ship else 100.0

    def bucket(capacity):
        if capacity is None:
            return None
        return TokenBucket(capacity, capacity, clock)

    declared = surface.levels
    rungs = []
    if ConsistencyLevel.STRONG in declared:
        rungs.append(
            Rung(
                level=ConsistencyLevel.STRONG,
                surface=surface,
                cost=4.0,
                capacity=bucket(strong_capacity),
                breaker=board.get("strong", health=strong_health),
            )
        )
    if ConsistencyLevel.BOUNDED_STALENESS in declared:
        rungs.append(
            Rung(
                level=ConsistencyLevel.BOUNDED_STALENESS,
                surface=surface,
                cost=2.0,
                capacity=bucket(bounded_capacity),
                breaker=board.get("bounded", health=bounded_health),
                declared_bound=bounded_staleness,
            )
        )
    if ConsistencyLevel.EVENTUAL in declared:
        # A geo group answers site-aware itself (a geo cluster's
        # ``store`` is one shard's replica, never a bottom).
        geo = isinstance(surface, GeoReplicaGroup)
        bottom = surface if geo else _CheapestCopy(cluster)
        rungs.append(Rung(level=ConsistencyLevel.EVENTUAL, surface=bottom, cost=1.0))
    return rungs


class _CheapestCopy:
    """The flat clusters' bottom rung: the cheapest copy that always
    answers, served as EVENTUAL.  Only the door reads it, so it has a
    ``serve`` and no ``read``.

    Preference order: the warehouse extract (already a read model),
    else the primary store's latest rollup checkpoint (a frozen
    snapshot — zero marginal load on the serving path), else the
    store's own fold at staleness zero.
    """

    def __init__(self, cluster):
        self.sim = cluster.sim
        self.warehouse = cluster.warehouse
        self.store = cluster.store

    def serve(self, entity_type, entity_key, level, *, site=None):
        eventual = ConsistencyLevel.EVENTUAL
        warehouse = self.warehouse
        if warehouse is not None and warehouse.extracted_at >= 0:
            state, _extract, staleness, _by, _site = warehouse.serve(
                entity_type, entity_key, eventual
            )
            return state, eventual, staleness, "warehouse", ""
        store = self.store
        manager = store.checkpoints
        checkpoint = manager.latest() if manager is not None else None
        if checkpoint is not None:
            state = checkpoint.states.get((entity_type, entity_key))
            age = max(0.0, self.sim.now - checkpoint.taken_at)
            return state, eventual, age, "checkpoint", ""
        return store.get(entity_type, entity_key), eventual, 0.0, store.name, ""
