"""The single frame ingest: ``LSDBStore.apply_remote_frame``.

Two contracts:

* **frame ingest ≡ per-event ingest.**  ``apply_remote`` is the
  reference semantics (dedup, reorder buffer, drain); the frame ingest
  classifies whole runs in column space and must land on exactly the
  same store — state, feeds, indexes and sparse columns — for frames
  carrying replays, stale prefixes, gaps, interleaved origins, repeated
  and descending sequences, after a compaction, and when one frame
  object is applied at several stores.
* **malformed frames are rejected whole.**  A ragged or mis-coded frame
  raises :class:`~repro.errors.MalformedFrame` before a single row
  reaches the arena.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MalformedFrame, ReproError
from repro.lsdb.columnar import ColumnFrame, EventSlice
from repro.lsdb.events import EventKind, LogEvent
from repro.lsdb.log import AppendOnlyLog
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta

ORIGINS = ["r1", "r2", "r3"]
PER_ORIGIN = 8
TYPES = ("acct", "item")


def donor_log() -> tuple[AppendOnlyLog, dict[tuple[str, int], int]]:
    """A log holding ``PER_ORIGIN`` events from each origin, interleaved
    round-robin, over two entity types, some with a transaction id or
    tags, plus the ``(origin, seq) -> arena row`` map frames are cut
    from."""
    log = AppendOnlyLog("donor")
    row_of: dict[tuple[str, int], int] = {}
    for seq in range(1, PER_ORIGIN + 1):
        for index, origin in enumerate(ORIGINS):
            key = f"k{(seq + index) % 3}"
            if seq % 4 == 0:
                kind, payload = EventKind.SET_FIELDS, {"label": f"{origin}-{seq}"}
            else:
                kind = EventKind.DELTA
                payload = Delta.add("balance", seq + index).to_payload()
            row_of[(origin, seq)] = len(log.arena)
            log.append(
                LogEvent(
                    lsn=0, timestamp=float(seq),
                    entity_type=TYPES[(seq + index) % 5 == 0],
                    entity_key=key, kind=kind, payload=payload,
                    origin=origin, origin_seq=seq,
                    tx_id=f"t{origin}{seq}" if seq % 2 else "",
                    tags=frozenset({"audit"}) if seq % 3 == 0 else frozenset(),
                )
            )
    return log, row_of


@st.composite
def frame_plans(draw):
    """One to five frames, each a concatenation of per-origin sequence
    runs.  Run starts are unconstrained, so across frames they replay
    applied sequences, reach back into stale prefixes, jump ahead over
    gaps and interleave origins; ``repeat`` doubles one sequence inside
    a run.  A frame may instead be one of the hostile single-origin
    shapes: a descending pair, a gap inside a run, or a sequence
    repeated after others."""
    plans = []
    for _ in range(draw(st.integers(1, 5))):
        origin = draw(st.sampled_from(ORIGINS))
        low = draw(st.integers(1, PER_ORIGIN - 3))
        hostile = {
            "descending pair": [low + 1, low],
            "gap inside a run": [low, low + 2, low + 3],
            "non-adjacent repeat": [low, low + 1, low + 2, low],
        }
        shape = draw(st.sampled_from([None, *hostile]))
        if shape is not None:
            plans.append([(origin, seq) for seq in hostile[shape]])
            continue
        runs = []
        for _ in range(draw(st.integers(1, 4))):
            origin = draw(st.sampled_from(ORIGINS))
            first = draw(st.integers(1, PER_ORIGIN))
            last = draw(st.integers(first, PER_ORIGIN))
            seqs = list(range(first, last + 1))
            if draw(st.booleans()):
                repeat = draw(st.integers(0, len(seqs) - 1))
                seqs.insert(repeat, seqs[repeat])
            runs.extend((origin, seq) for seq in seqs)
        plans.append(runs)
    return plans


def fingerprint(store: LSDBStore):
    """Everything the ingest writes: state, vector, dedup and reorder
    bookkeeping, the live log, the per-entity, per-type and per-origin
    feeds, and each arena row's sparse columns."""
    log = store.log
    cols = log.arena
    refs = sorted(ref for refs in store.type_refs_view().values() for ref in refs)
    return (
        store.current_state(),
        store.version_vector.to_dict(),
        store.duplicates_rejected,
        store._reorder_buffer,
        log.events().identities(),
        [list(log.for_entity(*ref)) for ref in refs],
        [list(log.for_type_since(entity_type, 0)) for entity_type in TYPES],
        [store.events_from_origin(origin, 0).identities() for origin in ORIGINS],
        [(cols.tx_ids[row], cols.tags_at(row)) for row in range(len(cols))],
    )


def frame_of(log: AppendOnlyLog, row_of, plan) -> ColumnFrame:
    rows = [row_of[identity] for identity in plan]
    return ColumnFrame.from_slice(EventSlice(log.arena, rows))


def apply_both(by_frame: LSDBStore, by_event: LSDBStore, frame: ColumnFrame) -> None:
    frame_count = by_frame.apply_remote_frame(frame)
    event_count = sum(by_event.apply_remote(e) for e in frame.events())
    assert frame_count == event_count
    assert fingerprint(by_frame) == fingerprint(by_event)


@settings(max_examples=200, deadline=None)
@given(plans=frame_plans())
def test_frame_ingest_equals_per_event_ingest(plans):
    log, row_of = donor_log()
    by_frame = LSDBStore(origin="x")
    by_event = LSDBStore(origin="x")
    for plan in plans:
        apply_both(by_frame, by_event, frame_of(log, row_of, plan))


@settings(max_examples=50, deadline=None)
@given(before=frame_plans(), after=frame_plans())
def test_frame_ingest_equals_per_event_ingest_after_compaction(before, after):
    """``compact()`` moves the log to an explicit list of live rows; the
    batch indexer must extend that list, its LSNs and its contiguity
    exactly as per-event appends do."""
    log, row_of = donor_log()
    by_frame = LSDBStore(origin="x")
    by_event = LSDBStore(origin="x")
    for plan in before:
        apply_both(by_frame, by_event, frame_of(log, row_of, plan))
    live = len(by_frame.log)
    by_frame.compact(keep_recent=1)
    by_event.compact(keep_recent=1)
    assert (by_frame.log._rows is not None) == (live > 1)
    assert fingerprint(by_frame) == fingerprint(by_event)
    for plan in after:
        apply_both(by_frame, by_event, frame_of(log, row_of, plan))


@settings(max_examples=50, deadline=None)
@given(plans=frame_plans())
def test_one_frame_object_applied_at_two_stores(plans):
    """A shipper encodes a chunk once per round and every peer receives
    that one object: applying it must leave it intact for the next."""
    log, row_of = donor_log()
    first, second = LSDBStore(origin="x"), LSDBStore(origin="y")
    reference = LSDBStore(origin="x")
    for plan in plans:
        frame = frame_of(log, row_of, plan)
        counts = (first.apply_remote_frame(frame), second.apply_remote_frame(frame))
        expected = sum(reference.apply_remote(e) for e in frame.events())
        assert counts == (expected, expected)
        assert fingerprint(first) == fingerprint(second) == fingerprint(reference)


def test_buffered_copy_drains_before_the_frame_reaches_it():
    """The case the run cut exists for: seq 3 sits in the reorder
    buffer when a frame carrying 1..4 arrives.  Per-event apply drains
    the buffered 3 after 2 and then rejects the frame's own 3; the
    frame ingest must not bulk-extend across it."""
    log, row_of = donor_log()
    store = LSDBStore(origin="x")
    store.apply_remote(log.arena.event_at(row_of[("r1", 3)]))
    assert store._reorder_buffer == {"r1": {3: log.arena.event_at(row_of[("r1", 3)])}}
    rows = [row_of[("r1", seq)] for seq in (1, 2, 3, 4)]
    frame = ColumnFrame.from_slice(EventSlice(log.arena, rows))
    assert store.apply_remote_frame(frame) == 3  # 1, 2, 4; 3 came from the buffer
    assert store.duplicates_rejected == 1
    assert store._reorder_buffer == {}
    assert store.version_vector.get("r1") == 4


# ---------------------------------------------------------------------- #
# Malformed frames
# ---------------------------------------------------------------------- #


def good_frame() -> ColumnFrame:
    log, row_of = donor_log()
    rows = [row_of[("r1", seq)] for seq in (1, 2, 3)]
    return ColumnFrame.from_slice(EventSlice(log.arena, rows))


def truncate_payloads(frame):
    frame.payloads = frame.payloads[:-1]


def truncate_origin_seqs(frame):
    frame.origin_seqs = frame.origin_seqs[:-1]


def truncate_tx_ids(frame):
    frame.tx_ids = frame.tx_ids[:-1]


def extra_timestamp(frame):
    frame.timestamps.append(9.0)


def ref_code_past_table(frame):
    frame.ref_codes[1] = len(frame.ref_table)


def negative_ref_code(frame):
    frame.ref_codes[2] = -1


def origin_code_past_table(frame):
    frame.origin_codes = array("i", [0, 0, 7])


def negative_origin_code(frame):
    frame.origin_codes[0] = -1


def unknown_kind_code(frame):
    frame.kinds[1] = len(EventKind)


@pytest.mark.parametrize(
    "corrupt",
    [
        truncate_payloads,
        truncate_origin_seqs,
        truncate_tx_ids,
        extra_timestamp,
        ref_code_past_table,
        negative_ref_code,
        origin_code_past_table,
        negative_origin_code,
        unknown_kind_code,
    ],
)
def test_malformed_frame_is_rejected_before_the_arena_moves(corrupt):
    store = LSDBStore(origin="x")
    store.apply_remote_frame(good_frame())  # some state to leave untouched
    rows_before = len(store.log.arena)
    vector_before = store.version_vector.to_dict()
    states_before = store.current_state()

    # A fresh run 4..6 would apply cleanly if it were well-formed.
    log, row_of = donor_log()
    rows = [row_of[("r1", seq)] for seq in (4, 5, 6)]
    frame = ColumnFrame.from_slice(EventSlice(log.arena, rows))
    corrupt(frame)
    with pytest.raises(MalformedFrame):
        store.apply_remote_frame(frame)

    assert len(store.log.arena) == rows_before
    assert store.version_vector.to_dict() == vector_before
    assert store._states == states_before
    assert store.duplicates_rejected == 0
    assert store._reorder_buffer == {}


def test_malformed_frame_is_a_repro_error():
    assert issubclass(MalformedFrame, ReproError)


def test_well_formed_and_empty_frames_validate():
    good_frame().validate()
    log, _ = donor_log()
    empty = ColumnFrame.from_slice(EventSlice(log.arena, []))
    empty.validate()
    assert LSDBStore(origin="x").apply_remote_frame(empty) == 0
