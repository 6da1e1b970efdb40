"""Columnar-log benchmarks: event creation, vectorized fold, frame codec.

PR 6's tentpole re-architects the LSDB around a columnar event log:
:class:`~repro.lsdb.columnar.EventColumns` stores events as parallel
arrays with interned strings, :class:`~repro.lsdb.columnar.EventSlice`
defers :class:`~repro.lsdb.events.LogEvent` materialization to API
boundaries, and :class:`~repro.lsdb.columnar.ColumnFrame` ships
replication batches as column slices.  This module measures the three
headline claims and one context block:

* **event creation** — appending from loose fields straight into the
  column arena vs constructing a ``LogEvent`` and re-stamping its LSN
  (the pre-columnar append path); gated at >=3x;
* **fold throughput** — the grouped columnar fold
  (``Rollup.fold(slice)``) vs the per-event ``fold_into`` loop over a
  materialized event list; gated at >=2x;
* **frame codec** — encode (``ColumnFrame.from_slice``) + decode
  (``AppendOnlyLog.extend_frame``) of a whole log vs per-event append
  of materialized events, plus a byte-for-byte round-trip equality
  check the gate requires to hold;
* **ingest context** — store-level write throughput and raw
  ``append_row`` throughput, for the trajectory record.

``tests/test_claims.py`` validates the committed trajectory file
``BENCH_columnar.json`` (>=3x create, >=2x fold, codec round-trip
equality).

Usage::

    python benchmarks/bench_columnar.py                  # full run
    python benchmarks/bench_columnar.py --quick          # CI smoke
    python benchmarks/bench_columnar.py --check-determinism
    python benchmarks/bench_columnar.py --json-out out.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_dataplane import best_of, check_determinism, populate  # noqa: E402
from repro.bench.report import ExperimentReport  # noqa: E402
from repro.lsdb.columnar import ColumnFrame  # noqa: E402
from repro.lsdb.events import EventKind, LogEvent  # noqa: E402
from repro.lsdb.log import AppendOnlyLog  # noqa: E402
from repro.lsdb.rollup import Rollup  # noqa: E402
from repro.lsdb.store import LSDBStore  # noqa: E402
from repro.replication.batching import BatchPolicy  # noqa: E402
from repro.sim.rng import SeededRNG  # noqa: E402

ENTITIES = 50
FIELDS_PER_ENTITY = 10

_PAYLOAD: dict = {"f0": 1}
_KEYS = tuple(f"a{index}" for index in range(ENTITIES))
_TAGS: frozenset = frozenset()


# --------------------------------------------------------------------- #
# Event creation: arena append vs LogEvent construction + LSN stamp
# --------------------------------------------------------------------- #


def bench_create(count: int) -> dict[str, float]:
    """Events/sec creating ``count`` events, object path vs column path.

    *Before* is the pre-columnar append: construct a ``LogEvent`` from
    loose fields, then ``with_lsn`` re-stamps it (a second construction)
    — two frozen-dataclass instantiations per event.  *After* is
    :meth:`AppendOnlyLog.append_row` with the same field values, the one
    body that writes a row's columns: a few array appends and two
    dictionary probes, plus the row's entity and type index entries, no
    event object at all.
    """

    def create_objects() -> None:
        for index in range(count):
            LogEvent(
                0, float(index), "acct", _KEYS[index % ENTITIES],
                EventKind.DELTA, _PAYLOAD, "local", index + 1, "", 1,
                _TAGS, "", "",
            ).with_lsn(index + 1)

    def create_rows() -> None:
        append_row = AppendOnlyLog().append_row
        for index in range(count):
            append_row(
                float(index), "acct", _KEYS[index % ENTITIES],
                EventKind.DELTA, _PAYLOAD, "local", index + 1,
            )

    return {
        "event_create_eps_before": count / best_of(3, create_objects),
        "event_create_eps_after": count / best_of(3, create_rows),
    }


# --------------------------------------------------------------------- #
# Fold throughput: grouped columnar fold vs per-event loop
# --------------------------------------------------------------------- #


def _mixed_log(deltas: int, seed: int = 3) -> AppendOnlyLog:
    """A log of ``ENTITIES`` inserts followed by ``deltas`` mixed
    delta/set events — the rollup workload shape the store produces."""
    rng = SeededRNG(seed)
    log = AppendOnlyLog()
    for index in range(ENTITIES):
        log.append_row(
            0.0, "acct", _KEYS[index], EventKind.INSERT,
            {f"f{f}": 0 for f in range(FIELDS_PER_ENTITY)},
        )
    for index in range(deltas):
        key = _KEYS[rng.randint(0, ENTITIES - 1)]
        field = f"f{rng.randint(0, FIELDS_PER_ENTITY - 1)}"
        if index % 10 == 9:
            log.append_row(
                float(index), "acct", key, EventKind.SET_FIELDS,
                {field: rng.randint(0, 100)},
            )
        else:
            log.append_row(
                float(index), "acct", key, EventKind.DELTA,
                {"numeric": {field: rng.randint(-5, 5)}},
            )
    return log


def bench_fold(deltas: int) -> dict[str, float]:
    """Events/sec folding one log into a state map, loop vs grouped.

    *Before* is the pre-columnar rollup read: the per-event
    ``fold_into`` loop over an (already materialized) event list.
    *After* is ``Rollup.fold`` handed the log's :class:`EventSlice`,
    which groups rows by entity and folds each run in place.  The two
    state maps are checked equal before timing is trusted.
    """
    log = _mixed_log(deltas)
    view = log.events()
    total = len(view)
    events = list(view)  # the before-world already held event objects
    rollup = Rollup()

    def fold_loop() -> dict:
        states: dict = {}
        fold_into = rollup.fold_into
        for event in events:
            fold_into(states, event)
        return states

    before_states = fold_loop()
    after_states = rollup.fold(view)
    if before_states.keys() != after_states.keys() or any(
        before_states[ref].fields != after_states[ref].fields
        or before_states[ref].event_count != after_states[ref].event_count
        for ref in before_states
    ):
        raise AssertionError("grouped fold disagrees with per-event fold")

    return {
        "fold_events": float(total),
        "fold_eps_before": total / best_of(3, fold_loop),
        "fold_eps_after": total / best_of(3, lambda: rollup.fold(view)),
    }


# --------------------------------------------------------------------- #
# Frame codec: column-slice encode/decode vs per-event re-append
# --------------------------------------------------------------------- #


def bench_frame_codec(
    deltas: int, max_batch: int = 256
) -> dict[str, Any]:
    """Events/sec moving a whole log into a fresh one, frames vs events.

    *Before* is the legacy receive path's core: append each
    materialized event to the destination log one at a time.  *After*
    cuts the source slice into contiguous runs, encodes each as a
    :class:`ColumnFrame` and bulk-decodes with ``extend_frame`` — the
    wire codec the replication layer now uses.  Round-trip equality is
    checked event-by-event (and recorded as a gated claim).
    """
    log = _mixed_log(deltas)
    view = log.events()
    total = len(view)
    policy = BatchPolicy(max_batch=max_batch)
    events = list(view)

    def ship_objects() -> AppendOnlyLog:
        destination = AppendOnlyLog()
        append = destination.append
        for event in events:
            append(event)
        return destination

    def ship_frames() -> AppendOnlyLog:
        destination = AppendOnlyLog()
        for chunk in policy.chunk_rows(view):
            frame = ColumnFrame.from_slice(chunk)
            destination.extend_frame(frame, 0, len(chunk))
        return destination

    decoded = ship_frames()
    roundtrip_equal = list(decoded.events()) == events

    return {
        "frame_codec_events": float(total),
        "frame_codec_eps_before": total / best_of(3, ship_objects),
        "frame_codec_eps_after": total / best_of(3, ship_frames),
        "frame_codec_roundtrip_equal": bool(roundtrip_equal),
    }


# --------------------------------------------------------------------- #
# Ingest context numbers
# --------------------------------------------------------------------- #


def bench_ingest(deltas: int) -> dict[str, float]:
    """Store-level and raw-log ingest throughput (context for the
    trajectory; the end-to-end numbers the creation speedup feeds)."""
    total = ENTITIES + deltas

    def store_ingest() -> None:
        populate(LSDBStore(), deltas)

    def log_ingest() -> None:
        _mixed_log(deltas)

    return {
        "store_ingest_eps": total / best_of(3, store_ingest),
        "log_append_row_eps": total / best_of(3, log_ingest),
    }


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #


def collect(quick: bool = False) -> dict[str, Any]:
    """Run every columnar benchmark and return the metric map."""
    create_count = 20_000 if quick else 200_000
    fold_deltas = 10_000 if quick else 100_000
    codec_deltas = 10_000 if quick else 100_000
    ingest_deltas = 5_000 if quick else 50_000

    metrics: dict[str, Any] = {}
    metrics.update(bench_create(create_count))
    metrics.update(bench_fold(fold_deltas))
    metrics.update(bench_frame_codec(codec_deltas))
    metrics.update(bench_ingest(ingest_deltas))

    metrics["event_create_speedup"] = (
        metrics["event_create_eps_after"] / metrics["event_create_eps_before"]
    )
    metrics["fold_speedup"] = (
        metrics["fold_eps_after"] / metrics["fold_eps_before"]
    )
    metrics["frame_codec_speedup"] = (
        metrics["frame_codec_eps_after"] / metrics["frame_codec_eps_before"]
    )
    metrics["_sizes"] = {
        "create_count": create_count,
        "fold_deltas": fold_deltas,
        "codec_deltas": codec_deltas,
        "ingest_deltas": ingest_deltas,
    }
    return metrics


def sweep(quick: bool = False) -> ExperimentReport:
    """Report view, consistent with the E-suite artefacts."""
    metrics = collect(quick=quick)
    report = ExperimentReport(
        experiment_id="COL",
        title="columnar event log: creation, vectorized fold, frame codec",
        claim=(
            "storing events as parallel columns with interned strings "
            "makes event creation >=3x and rollup folds >=2x faster, and "
            "the column-slice frame codec round-trips byte-identically"
        ),
        headers=["metric", "value"],
        notes=(
            "events/sec throughout; *_before is the object-per-event "
            "path, *_after the columnar path"
        ),
    )
    for key in (
        "event_create_eps_before",
        "event_create_eps_after",
        "event_create_speedup",
        "fold_eps_before",
        "fold_eps_after",
        "fold_speedup",
        "frame_codec_eps_before",
        "frame_codec_eps_after",
        "frame_codec_speedup",
        "frame_codec_roundtrip_equal",
        "store_ingest_eps",
        "log_append_row_eps",
    ):
        report.add_row(key, metrics[key])
    return report


def test_slice_fold_matches_event_loop(benchmark):
    """The fused slice fold agrees with the per-event loop (perf smoke)."""
    log = _mixed_log(5_000)
    view = log.events()
    rollup = Rollup()
    states = benchmark(lambda: rollup.fold(view))
    loop_states: dict = {}
    for event in view:
        rollup.fold_into(loop_states, event)
    assert states.keys() == loop_states.keys()
    assert all(
        states[ref].fields == loop_states[ref].fields
        and states[ref].event_count == loop_states[ref].event_count
        and states[ref].last_lsn == loop_states[ref].last_lsn
        for ref in states
    )


def trajectory(metrics: dict[str, Any]) -> dict[str, Any]:
    """The before/after/speedup artefact ``tests/test_claims.py`` validates."""
    return {
        "benchmark": "bench_columnar",
        "description": (
            "Columnar-log measurements before/after PR 6. Throughputs "
            "are events/sec (higher is better); before is the "
            "object-per-event path (LogEvent construction + with_lsn, "
            "per-event fold_into, per-event re-append), after is the "
            "columnar path (AppendOnlyLog.append_row, grouped "
            "Rollup.fold over an EventSlice, ColumnFrame encode + "
            "extend_frame decode). frame_codec_roundtrip_equal asserts "
            "the codec reproduced every event byte-for-byte."
        ),
        "sizes": dict(metrics["_sizes"]),
        "before": {
            "event_create_eps": metrics["event_create_eps_before"],
            "fold_eps": metrics["fold_eps_before"],
            "frame_codec_eps": metrics["frame_codec_eps_before"],
        },
        "after": {
            "event_create_eps": metrics["event_create_eps_after"],
            "fold_eps": metrics["fold_eps_after"],
            "frame_codec_eps": metrics["frame_codec_eps_after"],
            "store_ingest_eps": metrics["store_ingest_eps"],
            "log_append_row_eps": metrics["log_append_row_eps"],
        },
        "speedup": {
            "event_create": round(metrics["event_create_speedup"], 2),
            "fold_throughput": round(metrics["fold_speedup"], 2),
            "frame_codec": round(metrics["frame_codec_speedup"], 2),
            "frame_codec_roundtrip_equal":
                metrics["frame_codec_roundtrip_equal"],
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small CI sizes")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run the lossy batched replication scenario "
                             "(now frame-codec shipping) twice and compare "
                             "signatures")
    parser.add_argument("--json-out", type=str, default="", metavar="PATH",
                        help="write raw metrics as JSON to PATH")
    parser.add_argument("--trajectory-out", type=str, default="", metavar="PATH",
                        help="write the before/after/speedup artefact "
                             "(BENCH_columnar.json) to PATH")
    parser.add_argument("--label", type=str, default="run",
                        help="label stored in the JSON meta block")
    args = parser.parse_args()

    if args.check_determinism and not check_determinism():
        raise SystemExit(1)

    metrics = collect(quick=args.quick)
    payload = {
        "meta": {
            "label": args.label,
            "quick": args.quick,
            "python": sys.version.split()[0],
        },
        "metrics": metrics,
    }
    if args.json_out:
        pathlib.Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    if args.trajectory_out:
        pathlib.Path(args.trajectory_out).write_text(
            json.dumps(trajectory(metrics), indent=2) + "\n", encoding="utf-8"
        )
    for key, value in sorted(metrics.items()):
        if key.startswith("_"):
            continue
        print(f"{key:36s} {value}")


if __name__ == "__main__":
    main()
