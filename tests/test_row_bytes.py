"""A row costs bytes, not objects.

The store is insert-only and main-memory (paper §2.7, §3.1): every row
ever appended stays resident, so the bytes one row adds, times the rows,
is the store's memory bill.  The rule that keeps that bill small is
"dense data is a column, a row index is an array": a row's fields are
entries of the arena's columns (C arrays, or one list entry for the
payload and the tx id), and every index over rows — an entity's rows, a
type's rows, an origin's feed — is an ``array('q')``.  A row therefore
adds fixed-size entries, never a boxed int or a dict entry.

* the two budgets below price one more row over entities the store
  already holds, measured with ``tracemalloc``.  Payloads and tx-id
  strings are built beforehand and stored by reference, so the budgets
  price what the store adds for a row, not the data it is handed;
* an origin's feed keeps no copy of its sequences: a position in it is
  found by arithmetic on the one run of sequences every protocol-built
  feed is, or by a bisect keyed on the arena's sequence column
  otherwise, and both must agree with a plain bisect over the
  sequences.
"""

from __future__ import annotations

import gc
import tracemalloc
from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsdb.columnar import ColumnFrame
from repro.lsdb.events import EventKind, LogEvent
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta

ENTITIES = 64
ROWS = 16_384
CHUNK = 64

#: Bytes one more frame-applied row adds to a store, amortised over
#: ``ROWS`` rows in frames of ``CHUNK`` (CPython 3.11, 64-bit): 87
#: measured — 53 of arena columns (the tx id an 8-byte list entry), 32
#: of index entries (entity bucket, type rows and LSNs, origin feed),
#: the rest over-allocation; 218 while the tx ids were a dict keyed by
#: row, the entity buckets lists of boxed ints and each feed kept a list
#: of its sequences.  Ratchet it down with the next saving.
REPLICATED_ROW_BYTES_BUDGET = 96
#: Bytes one more local transactional append adds to a store (same
#: conditions): 86 measured; 181 with the dict, the lists and the
#: sequence copy.  Same ratchet rule.
LOCAL_ROW_BYTES_BUDGET = 96


def bytes_added(build, grow) -> float:
    """Bytes still allocated after ``grow(built)``, per the row count
    it returns.  ``build()`` runs traced too, so growing a structure it
    made counts only the growth."""
    gc.collect()
    tracemalloc.start()
    try:
        built = build()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        rows = grow(built)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / rows


def warm_store(origin: str) -> LSDBStore:
    """A store that already holds every entity the measured rows touch."""
    store = LSDBStore(origin=origin)
    for index in range(ENTITIES):
        store.insert("acct", f"k{index}", {"balance": 0})
    store.fold_pending()
    return store


def test_a_replicated_row_stays_inside_its_byte_budget():
    def build():
        donor = warm_store("donor")
        receiver = LSDBStore(origin="receiver")
        receiver.apply_remote_frame(ColumnFrame.from_slice(donor.events_since(0)))
        mark = donor.log.head_lsn
        for index in range(ROWS):
            donor.append_local(
                "acct", f"k{index % ENTITIES}", EventKind.DELTA,
                Delta.add("balance", 1).to_payload(), f"tx-{index}",
            )
        view = donor.events_since(mark)
        frames = [
            ColumnFrame.from_slice(view[start:start + CHUNK])
            for start in range(0, ROWS, CHUNK)
        ]
        return receiver, frames

    def grow(built):
        receiver, frames = built
        applied = sum(receiver.apply_remote_frame(frame) for frame in frames)
        assert applied == ROWS and receiver.unfolded == 0
        return applied

    per_row = bytes_added(build, grow)
    assert per_row <= REPLICATED_ROW_BYTES_BUDGET, per_row


def test_a_local_append_stays_inside_its_byte_budget():
    payload = Delta.add("balance", 1).to_payload()

    def build():
        return warm_store("local"), [f"tx-{index}" for index in range(ROWS)]

    def grow(built):
        store, tx_ids = built
        for index, tx_id in enumerate(tx_ids):
            store.append_local(
                "acct", f"k{index % ENTITIES}", EventKind.DELTA, payload, tx_id
            )
        assert store.fold_pending() == ROWS
        return ROWS

    per_row = bytes_added(build, grow)
    assert per_row <= LOCAL_ROW_BYTES_BUDGET, per_row


# ---------------------------------------------------------------------- #
# Feed positions without a copy of the sequences
# ---------------------------------------------------------------------- #

FEED_ORIGINS = ("o1", "o2")

feed_steps = st.one_of(
    # One event injected with any sequence: the next one (a contiguous
    # feed, from any first sequence), a repeat or a gap, an older one
    # (insert-sorted), or 0.
    st.tuples(st.just("event"), st.sampled_from(FEED_ORIGINS), st.integers(0, 12)),
    # A frame run of consecutive sequences from ``first``.
    st.tuples(
        st.just("run"), st.sampled_from(FEED_ORIGINS),
        st.integers(1, 12), st.integers(1, 4),
    ),
    # The store's own writes.
    st.tuples(st.just("local"), st.integers(1, 3)),
)


def feed_event(origin: str, seq: int, timestamp: float) -> LogEvent:
    return LogEvent(
        lsn=0, timestamp=timestamp, entity_type="acct", entity_key=f"k{seq % 3}",
        kind=EventKind.DELTA, payload=Delta.add("n", 1).to_payload(),
        origin=origin, origin_seq=seq,
    )


def build_feeds(steps) -> LSDBStore:
    store = LSDBStore(origin="self")
    for step in steps:
        clock = float(len(store.log.arena))
        if step[0] == "event":
            store.log.append(feed_event(step[1], step[2], clock))
        elif step[0] == "run":
            _, origin, first, count = step
            donor = LSDBStore(origin="donor")
            for offset in range(count):
                donor.log.append(feed_event(origin, first + offset, clock + offset))
            frame = ColumnFrame.from_slice(donor.events_since(0))
            store.log.extend_frame(frame, 0, len(frame))
        else:
            for _ in range(step[1]):
                store.append_local("acct", "k0", EventKind.DELTA, {"numeric": {"n": 1}})
    return store


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(feed_steps, max_size=12))
def test_feed_positions_equal_a_bisect_over_the_sequences(steps):
    """On contiguous, gapped and insert-sorted feeds alike, every feed
    read finds the position a plain ``bisect_right`` over the feed's
    sequences finds.  The reference feed is the origin's rows sorted
    stably by sequence (ties in arrival order)."""
    store = build_feeds(steps)
    arena = store.log.arena
    for origin in (*FEED_ORIGINS, "self", "never"):
        rows = sorted(
            (row for row in range(len(arena)) if arena.origin_at(row) == origin),
            key=arena.origin_seqs.__getitem__,
        )
        seqs = [arena.origin_seqs[row] for row in rows]
        for after_seq in range(-1, (seqs[-1] if seqs else 0) + 2):
            start = bisect_right(seqs, after_seq)
            assert list(store.events_from_origin(origin, after_seq).rows) == rows[start:]
            assert store.count_from_origin(origin, after_seq) == len(rows) - start
            assert store.origin_timestamp_after(origin, after_seq) == (
                arena.timestamps[rows[start]] if start < len(rows) else None
            )
