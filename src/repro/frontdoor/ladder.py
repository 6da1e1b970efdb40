"""The degrade ladder: consistency downgrade as the shedding valve.

The paper's answer to overload is not a queue and not a rejection — it
is a weaker read served *now* with an honest stamp (sections 2.3/2.9:
"serve fast and apologize" beats blocking; Meiklejohn's *Certain
Tendency* argues single-system-image semantics are the wrong default
for exactly this case).  The ladder encodes that as an ordered list of
:class:`Rung` s, strongest first::

    STRONG            master / primary / home     staleness 0
    BOUNDED_STALENESS slave / backup / replica    staleness <= declared bound
    EVENTUAL          warehouse / checkpoint      staleness measured, unbounded

A rung exists only for a level its surface declares
(:attr:`~repro.core.readpath.ReadSurface.levels`).

Each rung owns a read surface (served at the rung's level — see
:mod:`repro.core.readpath`), an optional service-capacity
:class:`~repro.frontdoor.admission.TokenBucket` (the rung's throughput
model), an optional circuit breaker, and — for the bounded rung — a
*declared* staleness bound the rung refuses to exceed: a slave that has
fallen further behind than its declaration passes the read down the
ladder rather than serve a lie.  The front door walks rungs from the
requested level toward the bottom and rejects only when every rung
refuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import ReadRequest, ReadResult
from repro.errors import ReproError
from repro.frontdoor.admission import TokenBucket
from repro.frontdoor.breaker import BreakerState, CircuitBreaker


@dataclass
class Rung:
    """One step of the ladder.

    Args:
        level: The consistency level this rung delivers.
        surface: What the rung reads: anything with
            :meth:`~repro.core.readpath.ReadSurface.serve`, served at the
            rung's level — what its copy honestly holds.
        cost: Admission tokens a read on this rung charges the tenant
            (strong reads cost more than snapshot reads).
        capacity: Optional service-capacity bucket — the rung's
            throughput model; an empty bucket means "this rung is
            saturated, try a weaker one".
        breaker: Optional circuit breaker around the rung's physical
            unit.
        declared_bound: For the bounded rung: the staleness this rung
            promises.  A measured staleness above it makes the rung
            refuse (:meth:`serve` returns ``None``) instead of serving
            beyond its declaration.
    """

    level: ConsistencyLevel
    surface: Any
    cost: float = 1.0
    capacity: Optional[TokenBucket] = None
    breaker: Optional[CircuitBreaker] = None
    declared_bound: Optional[float] = None
    #: Serves refused because the measured staleness broke the declared
    #: bound (visible to tests and reports).
    bound_refusals: int = field(default=0, compare=False)

    def serve(
        self,
        entity_type: str,
        entity_key: str,
        request: ReadRequest,
        site: Optional[str] = None,
    ) -> Optional[ReadResult]:
        """Attempt the read at this rung, for a door fronting ``site``,
        and stamp the answer.

        Returns ``None`` when the rung refuses — capacity empty, the
        surface raised a :class:`~repro.errors.ReproError`, the copy
        holds less than this rung's level (both breaker failures: the
        rung never relabels a weaker answer), or the measured staleness
        exceeds the declared bound — and the caller falls through to the
        next rung.  Any other exception is a programming error, not an
        unavailable copy: it propagates and no breaker hears of it.

        A served read is stamped here, once: delivered at the rung's
        level, degraded when that is weaker than requested.
        ``bound_violated`` is deliberately not set: the declared bound
        above is the bound the door enforces, and a read the bounded
        rung refused is served further down as a *degraded* read with
        an apology, not a violated one.
        """
        if self.capacity is not None and not self.capacity.try_take(1.0):
            return None
        level = self.level
        try:
            state, held, staleness, served_by, served_site = self.surface.serve(
                entity_type, entity_key, level, site=site
            )
        except ReproError:
            return self._failed()
        if held.strength > level.strength:
            return self._failed()
        if (
            self.declared_bound is not None
            and staleness is not None
            and staleness > self.declared_bound
        ):
            # Serving would exceed what this rung declares; refuse and
            # let a rung with no bound (or a wider one) answer.
            self.bound_refusals += 1
            return None
        breaker = self.breaker
        # A success on a closed breaker with no failures changes nothing.
        if breaker is not None and (
            breaker.failures or breaker.state is not BreakerState.CLOSED
        ):
            breaker.record_success()
        return ReadResult(
            state,
            requested_level=request.level,
            delivered_level=level,
            staleness=staleness,
            degraded=level.strength > request.level.strength,
            served_by=served_by,
            site=served_site,
        )

    def _failed(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()
        return None


class DegradeLadder:
    """Ordered rungs, strongest first.  Fixed once built: which rungs a
    request may use, and what admission charges for it, depend only on
    ``(level, allow_degraded)``, so both are tabulated here instead of
    re-derived per read (:attr:`plans`)."""

    def __init__(self, rungs: list[Rung]):
        if not rungs:
            raise ValueError("a ladder needs at least one rung")
        order = [rung.level.strength for rung in rungs]
        if order != sorted(order):
            raise ValueError("rungs must be ordered strongest to weakest")
        self.rungs = tuple(rungs)
        #: ``plans[level.strength][allow_degraded]`` is :meth:`plan`'s
        #: answer; the door indexes it directly.
        self.plans = tuple(
            tuple(
                self._plan(ReadRequest(level=level, allow_degraded=allow))
                for allow in (False, True)
            )
            for level in ConsistencyLevel
        )

    def _plan(self, request: ReadRequest) -> tuple[tuple[Rung, ...], float]:
        rungs = tuple(self.candidates(request))
        return rungs, min((rung.cost for rung in rungs), default=0.0)

    def plan(self, request: ReadRequest) -> tuple[tuple[Rung, ...], float]:
        """``(candidate rungs, cheapest cost among them)`` for
        ``request``: :meth:`candidates` and the admission charge, looked
        up by ``level.strength`` and ``allow_degraded``."""
        return self.plans[request.level.strength][request.allow_degraded]

    def candidates(self, request: ReadRequest) -> list[Rung]:
        """Rungs eligible for ``request``: the requested level's rung
        first, then — when degradation is allowed — every weaker rung.
        Rungs *stronger* than the request are never used: a caller who
        asked for an eventual read must not be billed a master read.
        """
        wanted = request.level.strength
        eligible = [rung for rung in self.rungs if rung.level.strength >= wanted]
        if not request.allow_degraded:
            return [rung for rung in eligible if rung.level.strength == wanted]
        if not eligible:
            # A request weaker than the weakest rung (e.g. EXTRACT on a
            # ladder that bottoms out at EVENTUAL) gets the bottom rung:
            # serving slightly stronger than asked is never a downgrade.
            return [self.rungs[-1]]
        return eligible

    def describe(self) -> list[dict[str, Any]]:
        """One dict per rung, for reports."""
        return [
            {
                "level": rung.level.value,
                "cost": rung.cost,
                "declared_bound": rung.declared_bound,
                "breaker": rung.breaker.state.value if rung.breaker else None,
            }
            for rung in self.rungs
        ]
