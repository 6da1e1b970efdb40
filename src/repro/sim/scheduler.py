"""Discrete-event simulator: a virtual clock and an ordered event heap.

The simulator is the root object of every experiment.  All other
subsystems (network, queues, replication schemes, process engine) obtain
time from it and schedule future work on it, so a whole distributed
scenario unfolds deterministically inside one Python process.

Determinism contract
--------------------
Events fire in ``(time, sequence-number)`` order.  The sequence number is
the order of scheduling, so ties at the same virtual time are broken by
insertion order, never by hash order or wall-clock noise.  Given the same
seed and the same sequence of ``schedule`` calls, two runs produce
byte-identical histories — which is what makes the experiment suite
reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError


class ScheduledEvent:
    """A handle for a callback scheduled to fire at a virtual time.

    The heap itself stores plain ``(time, seq, event)`` tuples — tuple
    comparison is far cheaper than dataclass ordering, and ``(time,
    seq)`` is unique so the handle is never compared.  ``cancelled``
    events stay in the heap but are skipped when popped (lazy deletion).

    ``ctx`` is the span id that was ambient when the event was
    scheduled (``None`` with tracing off): firing resumes that span, so
    deferred work attaches to the trace of whatever caused it.
    """

    __slots__ = ("time", "seq", "action", "label", "cancelled", "_sim", "ctx")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[[], Any],
        label: str = "",
        sim: Optional["Simulator"] = None,
        ctx: Optional[str] = None,
    ):
        self.time = time
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False
        self._sim = sim
        self.ctx = ctx

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            # Keep the owning simulator's live-event counter exact; a
            # cancel after the event fired (or was dropped) is a no-op
            # because the pop detached the handle.
            if self._sim is not None:
                self._sim._live -= 1
                self._sim = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "live"
        return (
            f"ScheduledEvent(t={self.time}, seq={self.seq}, "
            f"label={self.label!r}, {state})"
        )


class Simulator:
    """A deterministic discrete-event loop with a virtual clock.

    :meth:`run` is the one event loop; :meth:`step` is
    ``run(max_events=1)``.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
        >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
        >>> _ = sim.run()
        >>> fired
        [2.0, 5.0]

    Args:
        seed: Seed for the simulator-owned random stream (``self.rng``).
            Subsystems that need randomness should draw from this stream
            (or fork it via :meth:`fork_rng`) so a single seed pins the
            whole run.
        tracer: Optional :class:`repro.obs.trace.Tracer`.  When set, the
            ambient span is captured at ``schedule()`` time and resumed
            around the callback when it fires — the causal carrier for
            deferred work.  Components built on this simulator take
            their tracer from it.
        metrics: Optional :class:`repro.obs.metrics.MetricsRegistry`;
            the simulator counts fired events into it, and components
            built on this simulator take their registry from it.
    """

    def __init__(self, seed: int = 0, tracer=None, metrics=None):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._seq: int = 0
        self._processed: int = 0
        self._live: int = 0
        from repro.sim.rng import SeededRNG

        self.rng = SeededRNG(seed)
        self._seed = seed
        self._fork_count = 0
        self.tracer = tracer
        self.metrics = metrics
        self._fired_counter = (
            metrics.counter("sim.events_fired") if metrics is not None else None
        )

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule(
        self,
        delay: float,
        action: Callable[[], Any],
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``action`` to run ``delay`` virtual time units from now.

        Args:
            delay: Non-negative offset from the current virtual time.
            action: Zero-argument callable invoked when the event fires.
            label: Optional tag used in tracing and error messages.

        Returns:
            A handle whose :meth:`ScheduledEvent.cancel` prevents firing.

        Raises:
            SimulationError: If ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        tracer = self.tracer
        event = ScheduledEvent(
            time=self.now + delay, seq=self._seq, action=action, label=label,
            sim=self, ctx=tracer.capture() if tracer is not None else None,
        )
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        action: Callable[[], Any],
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``action`` at an absolute virtual time (``>= now``)."""
        return self.schedule(time - self.now, action, label=label)

    def call_soon(self, action: Callable[[], Any], label: str = "") -> ScheduledEvent:
        """Schedule ``action`` at the current virtual time (after pending
        events already scheduled for this instant)."""
        return self.schedule(0.0, action, label=label)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Fire the single next non-cancelled event.

        Returns:
            ``True`` if an event fired, ``False`` if the heap is empty.
        """
        return self.run(max_events=1) == 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the heap drains, the clock passes ``until``,
        or ``max_events`` have fired.

        Events scheduled exactly at ``until`` still fire; the first event
        strictly later than ``until`` does not, and the clock is advanced
        to ``until`` so follow-up ``run`` calls resume cleanly.

        Returns:
            The number of events fired by this call.
        """
        # One fused loop: each event is examined exactly once.
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        tracer = self.tracer
        fired_counter = self._fired_counter
        while heap:
            if max_events is not None and fired >= max_events:
                return fired
            time, _seq, event = heap[0]
            if event.cancelled:
                pop(heap)
                continue
            if until is not None and time > until:
                self.now = max(self.now, until)
                return fired
            pop(heap)
            self._live -= 1
            event._sim = None
            self.now = time
            self._processed += 1
            if fired_counter is not None:
                fired_counter.inc()
            if tracer is not None and event.ctx is not None:
                with tracer.resume(event.ctx):
                    event.action()
            else:
                event.action()
            fired += 1
        if until is not None:
            self.now = max(self.now, until)
        return fired

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Run for ``duration`` virtual time units from the current clock."""
        return self.run(until=self.now + duration, max_events=max_events)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events.

        O(1): a live counter maintained on schedule, cancel and pop
        (the heap may still physically hold cancelled entries awaiting
        lazy deletion, but they are not counted).
        """
        return self._live

    @property
    def processed(self) -> int:
        """Total number of events fired since construction."""
        return self._processed

    @property
    def seed(self) -> int:
        """The seed this simulator was constructed with."""
        return self._seed

    def fork_rng(self) -> "SeededRNG":
        """Return an independent deterministic random stream.

        Each call derives a distinct stream from the simulator seed, so
        components can own private randomness without perturbing each
        other's draws (adding a component never changes another
        component's variates).
        """
        from repro.sim.rng import SeededRNG

        self._fork_count += 1
        return SeededRNG((self._seed * 1_000_003 + self._fork_count) & 0x7FFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulator(now={self.now:.3f}, pending={self.pending}, "
            f"processed={self._processed})"
        )
