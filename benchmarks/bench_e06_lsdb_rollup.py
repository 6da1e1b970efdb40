"""E6 — LSDB read cost: full rollup vs checkpoint + suffix replay.

Paper claim (section 3.1): "What applications view as the current state
of the database would be a rollup aggregation of the contents of the
LSDB [...] This can be implemented efficiently using main memory
database techniques."

The naive rollup is linear in log length; the rollup checkpoint bounds
the replayed suffix.  We measure *wall-clock* read cost (this experiment
exercises real computation, not simulated time): a bank-style event log
of ``log_length`` deltas over 50 accounts, read back (a) by folding the
whole log and (b) from the checkpoint a store re-takes every
``interval`` appends (``CheckpointPolicy(every_events=interval)``).
"""

from __future__ import annotations

import time

from repro.bench.report import ExperimentReport
from repro.lsdb.checkpoint import CheckpointPolicy
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.sim.rng import SeededRNG

ACCOUNTS = 50


def build_store(log_length: int, interval: int, seed: int = 0) -> LSDBStore:
    store = LSDBStore()
    if interval:
        store.enable_checkpoints(CheckpointPolicy(every_events=interval))
    rng = SeededRNG(seed)
    for index in range(ACCOUNTS):
        store.insert("acct", f"a{index}", {"bal": 0})
    for _ in range(log_length):
        account = f"a{rng.randint(0, ACCOUNTS - 1)}"
        store.apply_delta("acct", account, Delta.add("bal", rng.randint(-5, 5)))
    return store


def time_full_rollup(store: LSDBStore, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        states = store.rollup_from_scratch()
        best = min(best, time.perf_counter() - start)
        assert states  # keep the fold honest
    return best * 1000.0  # milliseconds


def time_checkpoint_read(store: LSDBStore, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        states = store.state_as_of(store.log.head_lsn)
        best = min(best, time.perf_counter() - start)
        assert states
    return best * 1000.0


def consistency_check(log_length: int = 2000, interval: int = 100) -> bool:
    """Both read paths must agree — the identity behind the optimization."""
    store = build_store(log_length, interval)
    full = store.rollup_from_scratch()
    fast = store.state_as_of(store.log.head_lsn)
    return all(
        full[ref].fields == fast[ref].fields for ref in full
    ) and set(full) == set(fast)


def sweep() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E6",
        title="LSDB read cost: full rollup vs checkpoint + replay",
        claim=(
            "the current state is a rollup aggregation of the log; naive "
            "reads grow linearly with log length, checkpoints flatten the "
            "curve to the suffix length (3.1)"
        ),
        headers=[
            "log_length",
            "full_rollup_ms",
            "snap_interval_1000_ms",
            "snap_interval_100_ms",
        ],
        notes=(
            "wall-clock milliseconds (best of 3); snap_interval_N is a "
            "checkpoint re-taken every N appends, and smaller intervals "
            "bound the replayed suffix more tightly"
        ),
    )
    for log_length in (1_000, 5_000, 20_000):
        plain = build_store(log_length, interval=0)
        coarse = build_store(log_length, interval=1_000)
        fine = build_store(log_length, interval=100)
        report.add_row(
            log_length,
            time_full_rollup(plain),
            time_checkpoint_read(coarse),
            time_checkpoint_read(fine),
        )
    return report


def test_e06_lsdb_rollup(benchmark):
    assert consistency_check()
    store = build_store(10_000, interval=100)
    fast = benchmark(lambda: store.state_as_of(store.log.head_lsn))
    assert fast  # states returned
    # The checkpoint path beats the full fold on a long log.
    plain = build_store(10_000, interval=0)
    assert time_checkpoint_read(store) < time_full_rollup(plain)


if __name__ == "__main__":
    sweep().print()
