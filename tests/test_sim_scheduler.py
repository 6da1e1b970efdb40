"""Tests for the discrete-event simulator core."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.scheduler import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.schedule(2.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for label in ("first", "second", "third"):
            sim.schedule(1.0, lambda bound=label: fired.append(bound))
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]
        assert sim.now == 3.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.0, lambda: sim.call_soon(lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [4.0]

    def test_nested_scheduling_from_callbacks(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(2.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 3.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.run() == 0

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        assert keep.time == 1.0

    def test_pending_counter_tracks_through_lifecycle(self):
        sim = Simulator()
        handles = [sim.schedule(float(offset), lambda: None) for offset in range(5)]
        assert sim.pending == 5
        handles[0].cancel()
        handles[3].cancel()
        assert sim.pending == 3
        # Double-cancelling must not decrement twice.
        handles[3].cancel()
        assert sim.pending == 3
        sim.run(max_events=1)
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(max_events=1)
        assert sim.pending == 1
        handle.cancel()  # already fired: must not touch the live counter
        assert sim.pending == 1

    def test_cancel_inside_callback_prevents_pending_fire(self):
        sim = Simulator()
        fired = []
        victim = sim.schedule(2.0, lambda: fired.append("victim"))
        sim.schedule(1.0, lambda: victim.cancel())
        assert sim.run() == 1
        assert fired == []
        assert sim.pending == 0


class TestRunBounds:
    def test_run_until_leaves_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_includes_boundary_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run(until=3.0)
        assert fired == [3]

    def test_run_for_is_relative(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("a"))
        sim.schedule(9.0, lambda: fired.append("b"))
        sim.run_for(5.0)
        assert fired == ["a"]
        assert sim.now == 5.0

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for offset in range(10):
            sim.schedule(float(offset), lambda bound=offset: fired.append(bound))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_skips_a_cancelled_head_and_fires_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1)).cancel()
        sim.schedule(2.0, lambda: fired.append(2))
        sim.schedule(3.0, lambda: fired.append(3))
        assert sim.step() is True
        assert (fired, sim.now, sim.pending) == ([2], 2.0, 1)
        assert sim.step() is True
        assert sim.step() is False
        assert fired == [2, 3]

    def test_run_on_empty_heap_advances_to_until(self):
        sim = Simulator()
        assert sim.run(until=10.0) == 0
        assert sim.now == 10.0

    def test_processed_counts_fired_events(self):
        sim = Simulator()
        for offset in range(4):
            sim.schedule(float(offset), lambda: None)
        sim.run()
        assert sim.processed == 4


class TestDeterminism:
    def test_same_seed_same_rng_stream(self):
        draws_a = [Simulator(seed=7).rng.random() for _ in range(1)]
        draws_b = [Simulator(seed=7).rng.random() for _ in range(1)]
        assert draws_a == draws_b

    def test_forked_rngs_are_independent_and_reproducible(self):
        sim_a = Simulator(seed=3)
        sim_b = Simulator(seed=3)
        fork_a1, fork_a2 = sim_a.fork_rng(), sim_a.fork_rng()
        fork_b1, fork_b2 = sim_b.fork_rng(), sim_b.fork_rng()
        assert [fork_a1.random() for _ in range(5)] == [
            fork_b1.random() for _ in range(5)
        ]
        assert [fork_a2.random() for _ in range(5)] == [
            fork_b2.random() for _ in range(5)
        ]
        # Different forks produce different streams.
        assert fork_a1.random() != fork_a2.random()
