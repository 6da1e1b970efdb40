"""Bulk rebalance execution: batched live handoff of a move plan.

The :class:`~repro.partition.ring.RebalancePlanner` says *what* must
move; this module moves it, over live units, without a stop-the-world
pause.  Each entity transfer is the existing single-entity relocation
protocol (lock -> snapshot-write -> tombstone -> directory flip, see
:mod:`repro.partition.relocation`); the :class:`Rebalancer` adds the
bulk concerns around it:

* **batching** — at most ``batch_size`` entities move per simulator
  tick, ``batch_interval`` apart, so foreground traffic keeps getting
  commit slots while the rebalance drains;
* **fault tolerance** — transiently unmovable entities (locked by a
  writer, source or target node crashed or partitioned away) are
  retried under a :class:`~repro.core.policy.RetryPolicy`, and the
  whole run is bounded by a :class:`~repro.core.policy.TimeoutPolicy`
  deadline;
* **safety on giving up** — an entity whose retries are exhausted is
  *pinned*: its directory override is set to its current physical unit,
  so flipping the base router can never make it unreachable (it simply
  stays where it is until a later rebalance pass);
* **the bulk directory flip** — once the plan has drained, a catch-up
  sweep re-plans over entities written *during* the rebalance, the
  directory's base router is swapped to the new membership, and every
  override the new base already agrees with is compacted away (bulk
  moves would otherwise grow the directory by one override per entity,
  forever);
* **observability** — progress counters and a span per run/batch in
  :mod:`repro.obs`, so a timeline shows the rebalance interleaved with
  the traffic it ran under.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.core.policy import Deadline, RetryPolicy, TimeoutPolicy
from repro.partition.relocation import EntityMover
from repro.partition.ring import PlannedMove, RebalancePlan, RebalancePlanner
from repro.partition.router import Router

__all__ = ["RebalanceReport", "RebalanceRun", "Rebalancer"]

#: Move-report reasons that mean "try again later" rather than "give up".
_TRANSIENT_REASONS = ("entity locked by another owner", "units unreachable")


@dataclass
class RebalanceReport:
    """Outcome of one bulk rebalance run.

    ``completed + skipped + failed == planned`` once the run is done;
    ``retried`` counts extra attempts beyond each entity's first.
    """

    planned: int = 0
    keys_total: int = 0
    completed: int = 0
    skipped: int = 0  # entity vanished (deleted) between plan and move
    failed: int = 0  # retries exhausted; entity pinned where it is
    retried: int = 0
    swept: int = 0  # catch-up moves for entities written mid-rebalance
    batches: int = 0
    overrides_compacted: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    deadline_exceeded: bool = False

    @property
    def duration(self) -> float:
        """Virtual time the run occupied."""
        return self.finished_at - self.started_at

    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON-friendly summary (sorted keys)."""
        return {
            "batches": self.batches,
            "completed": self.completed,
            "deadline_exceeded": self.deadline_exceeded,
            "duration": self.duration,
            "failed": self.failed,
            "keys_total": self.keys_total,
            "overrides_compacted": self.overrides_compacted,
            "planned": self.planned,
            "retried": self.retried,
            "skipped": self.skipped,
            "swept": self.swept,
        }


class RebalanceRun:
    """A live (possibly still draining) rebalance.

    Attributes:
        plan: The plan being executed.
        report: Progress so far; final once :attr:`done`.
        done: Whether the run has finished (drained or dead-lined).
    """

    def __init__(self, rebalancer: "Rebalancer", plan: RebalancePlan,
                 new_router: Optional[Router], on_done: Optional[Callable[["RebalanceRun"], None]]):
        self.plan = plan
        self.report = RebalanceReport(
            planned=plan.keys_moved, keys_total=plan.keys_total
        )
        self.done = False
        self._rebalancer = rebalancer
        self._new_router = new_router
        self._on_done = on_done
        self._pending: deque[tuple[PlannedMove, int]] = deque(
            (move, 0) for move in plan.moves
        )
        self._waiting: list[PlannedMove] = []  # moves parked on retry timers
        # Entities to pin at finish: (type, key, physical unit).  The
        # physical unit is captured at give-up time, while the directory
        # still routes by the *old* base — after the flip it would answer
        # with the new base's target, which is where the data is not.
        self._pins: list[tuple[str, str, str]] = []
        self._deadline: Deadline = Deadline()
        self._span: Any = None

    @property
    def outstanding(self) -> int:
        """Moves not yet resolved (queued now or waiting on a retry)."""
        return len(self._pending) + len(self._waiting)

    def wait(self) -> RebalanceReport:
        """Drive the simulator until this run finishes (convenience for
        callers not running their own event loop) and return the report."""
        sim = self._rebalancer.sim
        if sim is not None:
            while not self.done and sim.step():
                pass
        return self.report


class Rebalancer:
    """Executes rebalance plans over live units.

    Args:
        mover: The per-entity relocation engine (its directory is the
            authority on where entities physically are).
        sim: The simulator that paces batches and retries.  ``None``
            runs every batch back-to-back, synchronously (retry delays
            collapse to immediate re-attempts).
        retry: Per-entity retry policy for transient failures (default:
            6 attempts, exponential backoff from 2.0 time units).
        timeout: Whole-run bound; on expiry the run stops retrying,
            pins everything unresolved, and reports
            ``deadline_exceeded``.
        batch_size: Entities moved per batch.
        batch_interval: Virtual time between batches.
        gate: Optional reachability predicate ``(source, target) ->
            bool``; a ``False`` answer is a transient failure (used to
            model crashed or partitioned-away unit hosts).
    """

    def __init__(
        self,
        mover: EntityMover,
        sim: Any = None,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[TimeoutPolicy] = None,
        batch_size: int = 16,
        batch_interval: float = 1.0,
        gate: Optional[Callable[[str, str], bool]] = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if batch_interval < 0:
            raise ValueError(f"batch_interval must be >= 0, got {batch_interval}")
        self.mover = mover
        self.sim = sim
        self.retry = retry if retry is not None else RetryPolicy.exponential(
            max_attempts=6, base_delay=2.0
        )
        self.timeout = timeout if timeout is not None else TimeoutPolicy.none()
        self.batch_size = batch_size
        self.batch_interval = batch_interval
        self.gate = gate
        #: Every run :meth:`execute` started, oldest first.
        self.runs: list[RebalanceRun] = []
        self._rng: Any = None  # forked lazily, only for jittered policies
        tracer = getattr(sim, "tracer", None)
        metrics = getattr(sim, "metrics", None)
        self.tracer = tracer
        if metrics is not None:
            self._m_completed = metrics.counter("rebalance.moves_completed")
            self._m_failed = metrics.counter("rebalance.moves_failed")
            self._m_retried = metrics.counter("rebalance.moves_retried")
            self._m_batches = metrics.counter("rebalance.batches")
            self._m_pending = metrics.gauge("rebalance.pending")
        else:
            self._m_completed = self._m_failed = None
            self._m_retried = self._m_batches = self._m_pending = None

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def execute(
        self,
        plan: RebalancePlan,
        new_router: Optional[Router] = None,
        on_done: Optional[Callable[[RebalanceRun], None]] = None,
    ) -> RebalanceRun:
        """Start draining ``plan``; returns immediately with the live run.

        Args:
            plan: What to move.
            new_router: The target membership; when given, the run ends
                with the catch-up sweep, the directory base flip and
                override compaction.  ``None`` leaves the directory's
                base untouched (overrides carry the whole change).
            on_done: Called once, with the finished run.
        """
        run = RebalanceRun(self, plan, new_router, on_done)
        self.runs.append(run)
        run.report.started_at = self._now()
        run._deadline = self.timeout.start(run.report.started_at)
        if self.tracer is not None:
            run._span = self.tracer.start_span(
                "rebalance",
                planned=plan.keys_moved,
                keys_total=plan.keys_total,
            )
        if self.sim is None:
            while not run.done:
                self._tick(run)
        else:
            self.sim.call_soon(lambda: self._tick(run), label="rebalance-batch")
        return run

    # ------------------------------------------------------------------ #
    # Draining
    # ------------------------------------------------------------------ #

    def _now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def _tick(self, run: RebalanceRun) -> None:
        """Move one batch, then schedule the next tick (or finish)."""
        if run.done:  # pragma: no cover - defensive: a stray late timer
            return
        if run._deadline.expired(self._now()):
            self._expire(run)
            return
        batch = [run._pending.popleft()
                 for _ in range(min(self.batch_size, len(run._pending)))]
        if batch:
            run.report.batches += 1
            if self._m_batches is not None:
                self._m_batches.inc()
            if self.tracer is not None:
                with self.tracer.resume(run._span.span_id):
                    with self.tracer.span("rebalance.batch", size=len(batch)):
                        for move, attempts in batch:
                            self._attempt(run, move, attempts)
            else:
                for move, attempts in batch:
                    self._attempt(run, move, attempts)
        if self._m_pending is not None:
            self._m_pending.set(run.outstanding)
        if run._pending:
            self._schedule_tick(run, self.batch_interval)
        elif not run._waiting:
            self._finish(run)
        # else: a retry timer will requeue work and re-schedule the tick.

    def _schedule_tick(self, run: RebalanceRun, delay: float) -> None:
        if self.sim is None:
            return  # synchronous mode loops in execute()
        self.sim.schedule(delay, lambda: self._tick(run), label="rebalance-batch")

    def _attempt(self, run: RebalanceRun, move: PlannedMove, attempts: int) -> None:
        source = self.mover.location_of(move.entity_type, move.entity_key)
        if self.gate is not None and not self.gate(source, move.target):
            self._transient(run, move, attempts)
            return
        report = self.mover.move(
            move.entity_type, move.entity_key, move.target,
            mover_id="rebalancer",
        )
        if report.moved or report.reason == "already at target":
            run.report.completed += 1
            if self._m_completed is not None:
                self._m_completed.inc()
        elif report.reason in _TRANSIENT_REASONS:
            self._transient(run, move, attempts)
        else:  # "entity not found at source": deleted since planning
            run.report.skipped += 1

    def _transient(self, run: RebalanceRun, move: PlannedMove, attempts: int) -> None:
        attempts += 1
        if run._deadline.expired(self._now()) or not self.retry.allows_retry(attempts):
            self._give_up(run, move)
            return
        run.report.retried += 1
        if self._m_retried is not None:
            self._m_retried.inc()
        if self.sim is None:
            # No clock to wait on: requeue for the next synchronous pass.
            run._pending.append((move, attempts))
            return
        if self.retry.jitter > 0.0 and self._rng is None:
            self._rng = self.sim.fork_rng()
        delay = self.retry.delay(attempts, rng=self._rng)
        run._waiting.append(move)

        def requeue() -> None:
            if run.done:
                return  # the run expired and already pinned this move
            run._waiting.remove(move)
            run._pending.append((move, attempts))
            self._schedule_tick(run, 0.0)

        self.sim.schedule(delay, requeue, label="rebalance-retry")

    def _give_up(self, run: RebalanceRun, move: PlannedMove) -> None:
        run.report.failed += 1
        if self._m_failed is not None:
            self._m_failed.inc()
        # Record where the entity physically is *now*, while the
        # directory still routes by the old base; the override itself is
        # applied at finish time, after the flip, so compaction against
        # the new base cannot drop it.
        physical = self.mover.location_of(move.entity_type, move.entity_key)
        run._pins.append((move.entity_type, move.entity_key, physical))

    def _expire(self, run: RebalanceRun) -> None:
        run.report.deadline_exceeded = True
        while run._pending:
            move, _ = run._pending.popleft()
            self._give_up(run, move)
        # Moves parked on retry timers are given up too; their timers
        # fire as no-ops (the requeue closure checks ``run.done``).
        for move in run._waiting:
            self._give_up(run, move)
        run._waiting.clear()
        self._finish(run)

    # ------------------------------------------------------------------ #
    # Finish: catch-up sweep, base flip, compaction, pinning
    # ------------------------------------------------------------------ #

    def _finish(self, run: RebalanceRun) -> None:
        directory = self.mover.directory
        if run._new_router is not None:
            # Catch-up sweep: entities created or resurrected while the
            # plan drained still route via the old base; move them now.
            residual = RebalancePlanner(directory, run._new_router).plan_from_units(
                self.mover.units
            )
            already_pinned = {(etype, ekey) for etype, ekey, _ in run._pins}
            for move in residual.moves:
                if (move.entity_type, move.entity_key) in already_pinned:
                    continue  # given up above; stays where it is
                if self.gate is not None and not self.gate(move.source, move.target):
                    self._give_up(run, move)
                    continue
                report = self.mover.move(
                    move.entity_type, move.entity_key, move.target,
                    mover_id="rebalancer",
                )
                if report.moved or report.reason == "already at target":
                    run.report.swept += 1
                elif report.reason in _TRANSIENT_REASONS:
                    self._give_up(run, move)  # one-shot: pin, next pass fixes
                # not-found: nothing to do
            run.report.overrides_compacted = directory.rebase(run._new_router)
        # Pin every given-up entity at its physical unit so the new base
        # router cannot strand it (override wins over base).
        for entity_type, entity_key, physical in run._pins:
            directory.move(entity_type, entity_key, physical)
        run.report.finished_at = self._now()
        run.done = True
        if self._m_pending is not None:
            self._m_pending.set(0)
        if self.tracer is not None and run._span is not None:
            self.tracer.end_span(
                run._span,
                completed=run.report.completed,
                failed=run.report.failed,
            )
        if run._on_done is not None:
            run._on_done(run)
