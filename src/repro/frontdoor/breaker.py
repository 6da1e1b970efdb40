"""Circuit breakers around the cluster's physical units.

A breaker guards one physical unit (the master, a slave, the quorum
coordinator).  It composes two views of health:

* the *simulator's failure view* — a ``health`` probe reading live
  state the fault injectors maintain (``node.crashed``, partition
  reachability).  An unhealthy probe fails fast without burning an
  attempt;
* *observed outcomes* — ``record_failure`` / ``record_success`` from
  the front door's serve attempts, tripping the breaker after
  ``failure_threshold`` consecutive failures.

Reset timing reuses :mod:`repro.core.policy`: the open interval is a
:class:`~repro.core.policy.RetryPolicy` delay (growing per consecutive
open, exponential by default) materialised as a
:class:`~repro.core.policy.Deadline`; when it passes, the breaker goes
half-open and one probe request decides closed-vs-open again.  All
timing is virtual, so seeded runs trip and reset identically.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.core.policy import Deadline, RetryPolicy


class BreakerState(enum.Enum):
    """The classic three-state breaker lifecycle."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """One breaker, guarding one physical unit.

    Args:
        name: The guarded unit (metric label).
        clock: Virtual-time source.
        failure_threshold: Consecutive failures that open the breaker.
        reset: Backoff schedule for the open interval — attempt *n* of
            re-closing waits ``reset.delay(n)``.  Default: exponential
            from 20 time units.
        health: Optional probe returning ``True`` while the unit is
            healthy; a ``False`` reading makes :meth:`allow` fail fast
            (the simulator's failure view, e.g. ``lambda: not
            node.crashed``).
        metrics: Optional registry; state changes count into
            ``frontdoor.breaker`` labelled by unit and transition.
    """

    def __init__(
        self,
        name: str,
        clock: Callable[[], float],
        failure_threshold: int = 3,
        reset: Optional[RetryPolicy] = None,
        health: Optional[Callable[[], bool]] = None,
        metrics=None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset = (
            reset
            if reset is not None
            else RetryPolicy(
                max_attempts=1_000_000, base_delay=20.0, backoff="exponential",
                max_delay=500.0,
            )
        )
        self.health = health
        self.metrics = metrics
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opens = 0
        self._reopen_streak = 0
        self._retry_at = Deadline()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def allow(self) -> bool:
        """Whether the front door may attempt this unit right now.

        ``False`` while the unit's health probe reads unhealthy or the
        breaker is open with time left on its reset deadline.  An open
        breaker whose deadline has passed flips to half-open and allows
        exactly the probe attempt.
        """
        health = self.health
        if health is not None and not health():
            return False
        if self.state is BreakerState.OPEN:
            if self._retry_at.expired(self.clock()):
                self._transition(BreakerState.HALF_OPEN)
                return True
            return False
        return True

    # ------------------------------------------------------------------ #
    # Outcomes
    # ------------------------------------------------------------------ #

    def record_success(self) -> None:
        """A served read: close the breaker and clear the streaks."""
        self.failures = 0
        self._reopen_streak = 0
        if self.state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        """A failed attempt: trip after the threshold (immediately when
        half-open — the probe request failed)."""
        self.failures += 1
        if self.state is BreakerState.HALF_OPEN or (
            self.state is BreakerState.CLOSED
            and self.failures >= self.failure_threshold
        ):
            self._open()

    def _open(self) -> None:
        self._reopen_streak += 1
        self.opens += 1
        delay = self.reset.delay(self._reopen_streak)
        self._retry_at = Deadline(at=self.clock() + delay)
        self._transition(BreakerState.OPEN)

    def _transition(self, state: BreakerState) -> None:
        self.state = state
        if self.metrics is not None:
            self.metrics.counter(
                "frontdoor.breaker", unit=self.name, to=state.value
            ).inc()


class BreakerBoard:
    """The front door's breakers, one per physical unit."""

    def __init__(self, clock: Callable[[], float], metrics=None, **defaults):
        self.clock = clock
        self.metrics = metrics
        self.defaults = defaults
        self._breakers: dict[str, CircuitBreaker] = {}

    def get(
        self, name: str, health: Optional[Callable[[], bool]] = None
    ) -> CircuitBreaker:
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                name,
                self.clock,
                health=health,
                metrics=self.metrics,
                **self.defaults,
            )
            self._breakers[name] = breaker
        return breaker
