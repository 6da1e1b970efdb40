"""Ingest cost: getting rows into a log costs work per frame and per
run, not Python calls per row.

The ingest-side sibling of ``test_write_cost.py``, counted the same way
(``sys.setprofile`` Python ``call`` events, never timings):

* applying an in-order single-origin frame over entities the store
  already knows takes the same number of calls for 8 rows as for 64 —
  classification, interning, column copies, indexing and the feed
  record are all per frame;
* one master/slave ship round encodes each chunk once, however many
  slaves receive it.

The single-row local append has its budget in ``test_write_cost.py``
(``STORE_APPEND_CALL_BUDGET``).
"""

from __future__ import annotations

from repro.lsdb.columnar import ColumnFrame, EventSlice
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from tests.test_write_cost import ladder_builder, python_calls

KEYS = 16


def donor_and_warm_store() -> tuple[LSDBStore, LSDBStore]:
    """A donor holding 200 writes over ``KEYS`` entities, and a store
    that already applied the first 100 of them (every entity known)."""
    donor = LSDBStore(origin="d")
    for index in range(200):
        donor.apply_delta("acct", f"k{index % KEYS}", Delta.add("n", 1))
    store = LSDBStore(origin="x")
    store.apply_remote_frame(
        ColumnFrame.from_slice(EventSlice(donor.log.arena, range(100)))
    )
    return donor, store


def frame_apply_calls(rows: int) -> list[str]:
    donor, store = donor_and_warm_store()
    frame = ColumnFrame.from_slice(EventSlice(donor.log.arena, range(100, 100 + rows)))
    calls = python_calls(lambda: store.apply_remote_frame(frame))
    assert store.version_vector.get("d") == 100 + rows
    assert store.get("acct", "k0").fields["n"] == len(range(0, 100 + rows, KEYS))
    return calls


def test_in_order_frame_costs_the_same_calls_for_8_rows_as_for_64():
    short, long = frame_apply_calls(8), frame_apply_calls(64)
    assert len(short) == len(long), (short, long)
    # What a per-row ingest spent its calls on: an index call, an
    # interning call and generator resumes per row.
    assert not [c for c in long if c.endswith((":_index_row", ":ref_id", ":<genexpr>"))]
    assert long.count("log.py:extend_frame") == 1
    assert long.count("store.py:_record_origin_run") == 1


def test_ship_round_encodes_each_chunk_once(monkeypatch):
    cluster = (
        ladder_builder()
        .with_replicas(4, mode="master_slave", ship_interval=10.0)
        .create()
    )
    scheme = cluster.replication
    assert len(scheme.slaves) == 3
    for index in range(300):
        scheme.write_delta("entity", f"k{index % 40}", Delta.add("n", 1))

    encoded: list[range] = []
    original = ColumnFrame.from_slice

    def counted(view):
        encoded.append(view.rows)
        return original(view)

    monkeypatch.setattr(ColumnFrame, "from_slice", counted)
    frames_before = cluster.network.stats.frames
    scheme._ship_round()
    frames_sent = cluster.network.stats.frames - frames_before

    # 300 rows in chunks of at most 64: five chunks, each encoded once
    # and shipped to each of the three slaves.
    assert len(encoded) == 5 and len(set(encoded)) == 5
    assert frames_sent == 3 * len(encoded)
    cluster.sim.run(until=50.0)
    for slave in scheme.slaves.values():
        assert slave.store.version_vector.get(scheme.master.node_id) == 300
        assert slave.store.get("entity", "k0").fields["n"] == 8
