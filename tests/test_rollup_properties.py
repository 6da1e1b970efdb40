"""Property-based tests: rollup convergence.

The rollup must be *convergent*: replicas that apply the same event set
in different orders reach the same observable state.  Deltas commute by
arithmetic; ``SET_FIELDS`` converges via per-field (timestamp, origin)
stamps.  This is the formal core of eventual consistency in the LSDB.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsdb.events import EventKind, LogEvent
from repro.lsdb.rollup import Rollup
from repro.merge.deltas import Delta


@st.composite
def delta_events(draw):
    """A batch of delta events on one entity (stamps irrelevant)."""
    amounts = draw(st.lists(st.integers(-10, 10), min_size=1, max_size=8))
    return [
        LogEvent(
            lsn=0, timestamp=float(index), entity_type="t", entity_key="k",
            kind=EventKind.DELTA, payload=Delta.add("qty", amount).to_payload(),
            origin=f"r{index % 3}", origin_seq=index + 1,
        )
        for index, amount in enumerate(amounts)
    ]


@st.composite
def stamped_set_events(draw):
    """SET_FIELDS events with unique (timestamp, origin) stamps."""
    count = draw(st.integers(1, 6))
    events = []
    for index in range(count):
        events.append(
            LogEvent(
                lsn=0,
                timestamp=float(draw(st.integers(0, 20))),
                entity_type="t",
                entity_key="k",
                kind=EventKind.SET_FIELDS,
                payload={"v": draw(st.integers(0, 9))},
                origin=f"r{index}",  # unique origin => unique stamp
                origin_seq=1,
            )
        )
    return events


def observable(states):
    return {
        ref: (dict(state.fields), state.deleted, state.obsolete)
        for ref, state in states.items()
    }


@settings(max_examples=80)
@given(events=delta_events(), permutation_seed=st.integers(0, 1000))
def test_delta_rollup_is_order_independent(events, permutation_seed):
    import random

    shuffled = list(events)
    random.Random(permutation_seed).shuffle(shuffled)
    rollup = Rollup()
    assert observable(rollup.fold(events)) == observable(rollup.fold(shuffled))


@settings(max_examples=80)
@given(events=stamped_set_events(), permutation_seed=st.integers(0, 1000))
def test_set_fields_rollup_is_order_independent(events, permutation_seed):
    import random

    shuffled = list(events)
    random.Random(permutation_seed).shuffle(shuffled)
    rollup = Rollup()
    assert observable(rollup.fold(events)) == observable(rollup.fold(shuffled))


@settings(max_examples=50)
@given(
    delta_batch=delta_events(),
    set_batch=stamped_set_events(),
    permutation_seed=st.integers(0, 1000),
)
def test_mixed_event_rollup_is_order_independent(
    delta_batch, set_batch, permutation_seed
):
    """Deltas touch ``qty``; SET_FIELDS touch ``v`` — disjoint fields,
    so any interleaving converges."""
    import random

    events = delta_batch + set_batch
    shuffled = list(events)
    random.Random(permutation_seed).shuffle(shuffled)
    rollup = Rollup()
    assert observable(rollup.fold(events)) == observable(rollup.fold(shuffled))


@settings(max_examples=50)
@given(events=delta_events())
def test_rollup_applied_twice_from_initial_equals_direct(events):
    """Folding a prefix then the suffix equals folding everything —
    the checkpoint+replay identity ``LSDBStore.state_as_of`` relies on."""
    rollup = Rollup()
    split = len(events) // 2
    prefix = rollup.fold(events[:split])
    resumed = rollup.fold(events[split:], initial=prefix)
    direct = rollup.fold(events)
    assert observable(resumed) == observable(direct)
