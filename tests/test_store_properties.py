"""Property-based tests on the store's replication-facing invariants.

The claim that makes the whole replication stack sound: *any* delivery
schedule of the same event set — reordered, duplicated, interleaved
across origins — produces the same observable state at every store.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsdb.checkpoint import Checkpoint
from repro.lsdb.events import EventKind, LogEvent
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta


@st.composite
def multi_origin_streams(draw):
    """Event streams from up to three origins, with per-origin
    contiguous sequences (what real replicas emit)."""
    streams = {}
    for origin in draw(
        st.lists(st.sampled_from(["r1", "r2", "r3"]), min_size=1, max_size=3,
                 unique=True)
    ):
        amounts = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
        streams[origin] = [
            LogEvent(
                lsn=0, timestamp=float(seq), entity_type="acct", entity_key="a",
                kind=EventKind.DELTA,
                payload=Delta.add("balance", amount).to_payload(),
                origin=origin, origin_seq=seq,
            )
            for seq, amount in enumerate(amounts, start=1)
        ]
    return streams


def _flatten(streams):
    events = []
    for origin_events in streams.values():
        events.extend(origin_events)
    return events


def _observable(store: LSDBStore):
    state = store.get("acct", "a")
    return dict(state.fields) if state else None


@settings(max_examples=80)
@given(
    streams=multi_origin_streams(),
    shuffle_seed=st.integers(0, 10_000),
)
def test_any_delivery_order_converges(streams, shuffle_seed):
    import random

    ordered = LSDBStore(origin="x")
    for event in _flatten(streams):
        ordered.apply_remote(event)

    shuffled_events = _flatten(streams)
    random.Random(shuffle_seed).shuffle(shuffled_events)
    shuffled = LSDBStore(origin="y")
    for event in shuffled_events:
        shuffled.apply_remote(event)

    assert _observable(ordered) == _observable(shuffled)
    # No event stuck in the reorder buffer: version vectors match.
    assert ordered.version_vector == shuffled.version_vector


@settings(max_examples=80)
@given(
    streams=multi_origin_streams(),
    duplication_seed=st.integers(0, 10_000),
)
def test_duplicated_delivery_is_harmless(streams, duplication_seed):
    import random

    rng = random.Random(duplication_seed)
    events = _flatten(streams)
    noisy = list(events)
    for event in events:
        if rng.random() < 0.5:
            noisy.append(event)  # duplicate ~half the events
    rng.shuffle(noisy)

    clean = LSDBStore(origin="x")
    for event in events:
        clean.apply_remote(event)
    dirty = LSDBStore(origin="y")
    for event in noisy:
        dirty.apply_remote(event)

    assert _observable(clean) == _observable(dirty)


@settings(max_examples=60)
@given(streams=multi_origin_streams())
def test_cross_shipping_converges_two_stores(streams):
    """Two stores receive disjoint direct streams, then exchange feeds —
    the anti-entropy identity at the store level."""
    left = LSDBStore(origin="left")
    right = LSDBStore(origin="right")
    origins = list(streams)
    for index, origin in enumerate(origins):
        target = left if index % 2 == 0 else right
        for event in streams[origin]:
            target.apply_remote(event)
    # Exchange: each side ships everything it has per origin.
    for origin in origins:
        for event in left.events_from_origin(origin, 0):
            right.apply_remote(event)
        for event in right.events_from_origin(origin, 0):
            left.apply_remote(event)
    assert _observable(left) == _observable(right)


@settings(max_examples=60)
@given(
    amounts=st.lists(st.integers(-5, 5), min_size=1, max_size=10),
    split=st.integers(0, 10),
)
def test_compaction_commutes_with_suffix_application(amounts, split):
    """compact(prefix) then apply suffix == apply everything: compaction
    is transparent to later writes."""
    split = min(split, len(amounts))
    plain = LSDBStore(origin="p")
    compacted = LSDBStore(origin="c")
    for amount in amounts[:split]:
        plain.apply_delta("acct", "a", Delta.add("balance", amount))
        compacted.apply_delta("acct", "a", Delta.add("balance", amount))
    if split:
        compacted.compact(keep_recent=0)
    for amount in amounts[split:]:
        plain.apply_delta("acct", "a", Delta.add("balance", amount))
        compacted.apply_delta("acct", "a", Delta.add("balance", amount))
    assert _observable(plain) == _observable(compacted)


# ---------------------------------------------------------------------- #
# The staleness stamp's index equals the feed walk it replaced
# ---------------------------------------------------------------------- #


def _event(origin: str, seq: int) -> LogEvent:
    """A delta whose timestamp identifies it (distinct per origin+seq)."""
    return LogEvent(
        lsn=0, timestamp=seq * 1.5 + ord(origin[-1]) / 1000.0,
        entity_type="acct", entity_key=f"a{seq % 3}", kind=EventKind.DELTA,
        payload=Delta.add("balance", seq).to_payload(),
        origin=origin, origin_seq=seq,
    )


def _assert_stamp_index_equals_feed_walk(store: LSDBStore, origins, max_seq: int):
    """``origin_timestamp_after`` against the definition follower reads
    used before it: build the origin's catch-up feed, materialise its
    first event, read the timestamp."""
    for origin in [*origins, "nobody"]:
        for seq in range(-1, max_seq + 2):
            feed = store.events_from_origin(origin, seq)
            expected = feed[0].timestamp if feed else None
            assert store.origin_timestamp_after(origin, seq) == expected


@settings(max_examples=80, deadline=None)
@given(
    lengths=st.dictionaries(
        st.sampled_from(["r1", "r2", "r3"]), st.integers(1, 8), min_size=1
    ),
    shuffle_seed=st.integers(0, 10_000),
    injected=st.lists(
        st.tuples(st.sampled_from(["r1", "r2", "r4"]), st.integers(0, 14)),
        max_size=5,
    ),
    keep_recent=st.one_of(st.none(), st.integers(0, 6)),
)
def test_origin_stamp_index_equals_feed_walk(
    lengths, shuffle_seed, injected, keep_recent
):
    """Over interleaved multi-origin arrival (feeds that are not
    arena-contiguous), sequences injected around the protocol (gaps,
    repeats and regressions, so the feed is insert-sorted) and
    compaction, for every sequence from below the feed to past it."""
    import random

    events = [_event(o, s) for o, n in lengths.items() for s in range(1, n + 1)]
    random.Random(shuffle_seed).shuffle(events)
    store = LSDBStore(origin="x")
    for event in events:
        store.apply_remote(event)
    for origin, seq in injected:
        store.log.append(_event(origin, seq))
    if keep_recent is not None:
        store.compact(keep_recent=keep_recent)
    _assert_stamp_index_equals_feed_walk(store, [*lengths, "r4"], 15)


@settings(max_examples=40, deadline=None)
@given(before=st.integers(1, 6), after=st.integers(0, 6))
def test_origin_stamp_index_after_checkpoint_install(before, after):
    """A bootstrapped replica's feeds start past the checkpoint's
    watermarks: sequences at or below them have nothing to stamp."""
    donor = LSDBStore(origin="donor")
    for seq in range(1, before + 1):
        donor.apply_remote(_event("r1", seq))
        donor.apply_delta("acct", "mine", Delta.add("balance", seq))
    joiner = LSDBStore(origin="joiner")
    joiner.install_checkpoint(Checkpoint.capture(donor))
    for seq in range(before + 1, before + after + 1):
        joiner.apply_remote(_event("r1", seq))
    _assert_stamp_index_equals_feed_walk(joiner, ["r1", "donor"], before + after)
    if after:
        first_new = _event("r1", before + 1)
        assert joiner.origin_timestamp_after("r1", 0) == first_new.timestamp
