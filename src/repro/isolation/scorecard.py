"""The mode x anomaly scorecard: theory, executions, and load economics.

Two halves:

* :func:`anomaly_matrix` runs every canned history under every
  :class:`~repro.core.transaction.IsolationLevel` on a fresh
  simulator/store/manager and has the
  :class:`~repro.isolation.detector.AnomalyDetector` judge each run.
  :data:`THEORY` is the published expected matrix;
  :func:`matches_theory` diffs them.  ``tests/test_claims.py`` fails the build
  on any disagreement — the matrix is an executable contract, not a
  table in a doc.
* :func:`run_open_loop` prices each level: a fixed open-loop arrival
  schedule of read-modify-write and read-only transactions over a
  keyspace with a deliberate hot key, reporting abort rate, commit
  latency, snapshot age and — the quantitative version of the
  lost-update row — how many committed increments the final counters
  actually reflect.

Everything is virtual-time and RNG-free: same inputs ⇒ byte-identical
output, which is what lets CI diff two runs of
``bench_isolation.py --check-determinism``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.transaction import (
    ISOLATION_SPECTRUM,
    IsolationLevel,
    TransactionManager,
)
from repro.isolation.detector import AnomalyDetector
from repro.isolation.histories import (
    HISTORIES,
    History,
    HistoryResult,
    HistoryRunner,
)
from repro.lsdb.store import LSDBStore
from repro.obs.metrics import MetricsRegistry
from repro.sim.scheduler import Simulator

#: Modes, weakest to strongest (matrix row order).
MODES: tuple[IsolationLevel, ...] = ISOLATION_SPECTRUM

#: Anomalies, in canned-history order (matrix column order).
ANOMALIES: tuple[str, ...] = tuple(history.name for history in HISTORIES)

#: NMSI propagation lag used for the canned histories — longer than any
#: schedule, so remote commits stay invisible for a history's duration.
HISTORY_PROPAGATION_LAG = 50.0

#: The expected matrix: ``THEORY[mode][anomaly]`` is whether the mode
#: admits the anomaly *on this architecture*.  Notes on the cells that
#: need them:
#:
#: * ``dirty_read`` is False everywhere: writes are buffered inside the
#:   transaction until commit, so uncommitted data structurally cannot
#:   be read (the paper's insert-only log has no "in-place dirty"
#:   state to leak).
#: * ``solipsistic`` reads live single-copy state, so its reads are
#:   trivially monotonic: it admits read skew and lost updates but can
#:   never witness a long fork or a non-monotonic snapshot on one
#:   serialization unit.
#: * ``nmsi`` forbids read skew within a transaction (reads come from
#:   one begin-time snapshot) yet admits long forks and non-monotonic
#:   snapshots *across* transactions — that is precisely the
#:   monotonicity NMSI trades away — while global first-committer-wins
#:   validation keeps lost updates impossible.
#: * ``snapshot`` admits exactly write skew; ``serializable`` admits
#:   nothing the harness knows.
THEORY: dict[str, dict[str, bool]] = {
    "solipsistic": {
        "dirty_read": False,
        "read_skew": True,
        "lost_update": True,
        "write_skew": True,
        "long_fork": False,
        "non_monotonic_snapshot": False,
    },
    "nmsi": {
        "dirty_read": False,
        "read_skew": False,
        "lost_update": False,
        "write_skew": True,
        "long_fork": True,
        "non_monotonic_snapshot": True,
    },
    "snapshot": {
        "dirty_read": False,
        "read_skew": False,
        "lost_update": False,
        "write_skew": True,
        "long_fork": False,
        "non_monotonic_snapshot": False,
    },
    "serializable": {
        "dirty_read": False,
        "read_skew": False,
        "lost_update": False,
        "write_skew": False,
        "long_fork": False,
        "non_monotonic_snapshot": False,
    },
}


def run_history(
    history: History,
    isolation: IsolationLevel,
    propagation_lag: float = HISTORY_PROPAGATION_LAG,
) -> HistoryResult:
    """Execute one canned history under one level on fresh machinery."""
    sim = Simulator(seed=0)
    store = LSDBStore(name="isolation", origin="tx", clock=lambda: sim.now)
    manager = TransactionManager(
        store,
        sim=sim,
        isolation=isolation,
        propagation_lag=propagation_lag,
    )
    return HistoryRunner(manager, sim).run(history, isolation=isolation)


def anomaly_matrix(
    propagation_lag: float = HISTORY_PROPAGATION_LAG,
) -> dict[str, dict[str, dict[str, object]]]:
    """Every history under every mode, judged.

    Returns ``matrix[mode][anomaly] = {"materialized": bool,
    "evidence": str}``.
    """
    detector = AnomalyDetector()
    matrix: dict[str, dict[str, dict[str, object]]] = {}
    for mode in MODES:
        row: dict[str, dict[str, object]] = {}
        for history in HISTORIES:
            verdict = detector.judge(
                run_history(history, mode, propagation_lag=propagation_lag)
            )
            row[history.name] = {
                "materialized": verdict.materialized,
                "evidence": verdict.evidence,
            }
        matrix[mode.value] = row
    return matrix


def matrix_bools(
    matrix: dict[str, dict[str, dict[str, object]]]
) -> dict[str, dict[str, bool]]:
    """Strip a matrix down to the boolean cells THEORY speaks about."""
    return {
        mode: {
            anomaly: bool(cell["materialized"])
            for anomaly, cell in row.items()
        }
        for mode, row in matrix.items()
    }


def matches_theory(
    bools: dict[str, dict[str, bool]]
) -> tuple[bool, list[str]]:
    """Diff an executed matrix against :data:`THEORY`.

    Returns ``(ok, mismatches)`` where each mismatch reads
    ``"mode/anomaly: theory=X observed=Y"``.
    """
    mismatches: list[str] = []
    for mode in sorted(THEORY):
        for anomaly in ANOMALIES:
            expected = THEORY[mode][anomaly]
            observed = bools.get(mode, {}).get(anomaly)
            if observed != expected:
                mismatches.append(
                    f"{mode}/{anomaly}: theory={expected} observed={observed}"
                )
    return (not mismatches, mismatches)


# ---------------------------------------------------------------------- #
# Open-loop load: what each level costs
# ---------------------------------------------------------------------- #


def _percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def run_open_loop(
    isolation: IsolationLevel,
    transactions: int = 400,
    interval: float = 1.0,
    think: float = 5.0,
    keys: int = 8,
    hot_every: int = 3,
    read_only_every: int = 4,
    propagation_lag: float = 10.0,
    sites: tuple[str, ...] = ("dc-a", "dc-b"),
    commit_cost: float = 1.0,
) -> dict[str, object]:
    """Fixed open-loop arrival schedule under one isolation level.

    Transaction ``i`` begins (and reads) at ``1 + i*interval`` and
    commits at begin + ``think``, so neighbours genuinely overlap and
    conflicts can arise.  Every ``hot_every``-th transaction hits the
    hot key ``k0`` (the contention source); every
    ``read_only_every``-th is read-only (it reads two keys and writes
    none); everything else read-modify-writes a key from the cold
    rotation.  Sites alternate per arrival, which under NMSI puts
    consecutive hot writers on opposite sides of the propagation
    window.

    The schedule is open-loop: arrivals do not wait for outcomes, so a
    mode's abort rate cannot slow the offered load — exactly the regime
    where the isolation levels' economics differ.
    """
    sim = Simulator(seed=0)
    store = LSDBStore(name="load", origin="load", clock=lambda: sim.now)
    metrics = MetricsRegistry()
    manager = TransactionManager(
        store,
        sim=sim,
        isolation=isolation,
        propagation_lag=propagation_lag,
        commit_cost=commit_cost,
        metrics=metrics,
    )
    for k in range(keys):
        store.set_fields("item", f"k{k}", {"n": 0})

    receipts: list = []
    rmw_outcomes: list[bool] = []

    def arrival(index: int) -> None:
        key = "k0" if index % hot_every == 0 else f"k{1 + index % (keys - 1)}"
        site = sites[index % len(sites)]
        read_only = index % read_only_every == 0
        tx = manager.begin(isolation=isolation, site=site)
        state = tx.read("item", key)
        seen = state.fields.get("n", 0) if state is not None else 0
        if read_only:
            tx.read("item", f"k{(index + 1) % keys}")

        def finish() -> None:
            if not read_only:
                tx.set_fields("item", key, {"n": seen + 1})
            receipt = tx.commit()
            receipts.append(receipt)
            if not read_only:
                rmw_outcomes.append(receipt.committed)

        sim.schedule_at(sim.now + think, finish, label=f"commit:{index}")

    for i in range(transactions):
        sim.schedule_at(
            1.0 + i * interval,
            (lambda bound=i: arrival(bound)),
            label=f"arrive:{i}",
        )
    sim.run(until=1.0 + transactions * interval + think + commit_cost + 1.0)

    committed = [r for r in receipts if r.committed]
    aborted = [r for r in receipts if not r.committed]
    latencies = [r.response_time for r in committed]
    ages = [r.snapshot_age for r in committed]
    applied = sum(
        (store.get("item", f"k{k}").fields.get("n", 0)) for k in range(keys)
    )
    rmw_commits = sum(1 for ok in rmw_outcomes if ok)
    ww_aborts = sum(
        1 for r in aborted if r.reason.startswith("write-write conflict")
    )
    return {
        "mode": isolation.value,
        "transactions": len(receipts),
        "commits": len(committed),
        "aborts": len(aborted),
        "abort_rate": round(len(aborted) / len(receipts), 6) if receipts else 0.0,
        "commit_latency_mean": round(
            sum(latencies) / len(latencies), 6
        ) if latencies else 0.0,
        "commit_latency_p95": round(_percentile(latencies, 0.95), 6),
        "snapshot_age_mean": round(sum(ages) / len(ages), 6) if ages else 0.0,
        "snapshot_age_p95": round(_percentile(ages, 0.95), 6),
        "rmw_commits": rmw_commits,
        "updates_applied": applied,
        "lost_updates": rmw_commits - applied,
        "ww_conflict_aborts": ww_aborts,
        "occ_aborts": len(aborted) - ww_aborts,
        "goodput": round(len(committed) / len(receipts), 6) if receipts else 0.0,
    }


def scorecard(
    quick: bool = False,
    transactions: Optional[int] = None,
) -> dict[str, object]:
    """The full deliverable: matrix + theory diff + per-mode load stats."""
    count = transactions if transactions is not None else (120 if quick else 400)
    matrix = anomaly_matrix()
    bools = matrix_bools(matrix)
    ok, mismatches = matches_theory(bools)
    load = {
        mode.value: run_open_loop(mode, transactions=count) for mode in MODES
    }
    return {
        "config": {
            "transactions": count,
            "history_propagation_lag": HISTORY_PROPAGATION_LAG,
            "modes": [mode.value for mode in MODES],
            "anomalies": list(ANOMALIES),
        },
        "matrix": matrix,
        "matrix_bools": bools,
        "theory": THEORY,
        "matches_theory": ok,
        "mismatches": mismatches,
        "load": load,
    }
