"""E4 — Solipsistic transactions vs pessimistic (2PL) and optimistic CC.

Paper claim (principle 2.10): "Solipsists aren't inconvenienced by
pessimistic concurrency control (which can cause waits, timeouts,
deadlocks), nor by optimistic concurrency control (which can cause
rollback if data changed since it was read).  Instead, solipsistic
transactions commit and expect system infrastructure to handle
conflicts."

Scenario: ``clients`` concurrent clients run transfer-style
transactions, each touching two Zipf-hot entities with a fixed work
time between first access and commit.

* **2PL** clients lock both entities (in access order, so deadlocks are
  possible), wait in FIFO queues, and retry as deadlock victims.
* **OCC** clients run, then validate read sets at commit and retry on
  validation failure.
* **Solipsistic** clients record commutative deltas and always commit;
  the convergent rollup composes concurrent updates, so there is
  nothing to wait for and nothing to abort.

Metrics over a fixed horizon: committed transactions (throughput), mean
latency from start to commit, and the conflict events each discipline
produced (waits+deadlocks, validation aborts, or none).
"""

from __future__ import annotations

from repro.bench.report import ExperimentReport
from repro.errors import DeadlockDetected, ValidationFailed
from repro.locks.optimistic import OCCValidator
from repro.locks.two_phase import LockManager2PL
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.obs.metrics import Histogram
from repro.sim.rng import ZipfGenerator
from repro.sim.scheduler import Simulator

HORIZON = 2000.0
WORK_TIME = 2.0
THINK_TIME = 1.0
ENTITY_COUNT = 8
ZIPF_THETA = 0.99
RETRY_BACKOFF = 1.0


class _Stats:
    def __init__(self):
        self.committed = 0
        self.conflicts = 0
        self.latency = Histogram("latency", {})


def _pick_two(zipf: ZipfGenerator) -> tuple[str, str]:
    first = zipf.draw()
    second = zipf.draw()
    while second == first:
        second = zipf.draw()
    return f"e{first}", f"e{second}"


def run_solipsistic(clients: int, seed: int = 0) -> dict[str, float]:
    sim = Simulator(seed=seed)
    store = LSDBStore(clock=lambda: sim.now)
    for index in range(ENTITY_COUNT):
        store.insert("acct", f"e{index}", {"v": 0})
    stats = _Stats()

    def client_loop(zipf: ZipfGenerator) -> None:
        if sim.now >= HORIZON:
            return
        started = sim.now
        key_a, key_b = _pick_two(zipf)

        def commit():
            # Record what the transaction did; composition is automatic.
            store.apply_delta("acct", key_a, Delta.add("v", -1))
            store.apply_delta("acct", key_b, Delta.add("v", 1))
            stats.committed += 1
            stats.latency.record(sim.now - started)
            sim.schedule(THINK_TIME, lambda: client_loop(zipf))

        sim.schedule(WORK_TIME, commit)

    for client in range(clients):
        zipf = ZipfGenerator(sim.fork_rng(), ENTITY_COUNT, ZIPF_THETA)
        sim.schedule(0.01 * client, lambda bound=zipf: client_loop(bound))
    sim.run(until=HORIZON + 50.0)
    return _summarise(stats)


def run_occ(clients: int, seed: int = 0) -> dict[str, float]:
    sim = Simulator(seed=seed)
    occ = OCCValidator()
    stats = _Stats()
    tx_counter = {"n": 0}

    def client_loop(zipf: ZipfGenerator) -> None:
        if sim.now >= HORIZON:
            return
        started = sim.now
        key_a, key_b = _pick_two(zipf)
        tx_counter["n"] += 1
        tx_id = f"tx-{tx_counter['n']}"
        occ.begin(tx_id)

        def try_commit():
            try:
                occ.commit(tx_id, [key_a, key_b], [key_a, key_b])
            except ValidationFailed:
                stats.conflicts += 1
                sim.schedule(RETRY_BACKOFF, lambda: client_loop(zipf))
                return
            stats.committed += 1
            stats.latency.record(sim.now - started)
            sim.schedule(THINK_TIME, lambda: client_loop(zipf))

        sim.schedule(WORK_TIME, try_commit)

    for client in range(clients):
        zipf = ZipfGenerator(sim.fork_rng(), ENTITY_COUNT, ZIPF_THETA)
        sim.schedule(0.01 * client, lambda bound=zipf: client_loop(bound))
    sim.run(until=HORIZON + 50.0)
    return _summarise(stats)


def run_2pl(clients: int, seed: int = 0) -> dict[str, float]:
    sim = Simulator(seed=seed)
    manager = LockManager2PL()
    stats = _Stats()
    tx_counter = {"n": 0}

    def client_loop(zipf: ZipfGenerator) -> None:
        if sim.now >= HORIZON:
            return
        started = sim.now
        key_a, key_b = _pick_two(zipf)
        tx_counter["n"] += 1
        tx_id = f"tx-{tx_counter['n']}"

        def restart():
            manager.release_all(tx_id)
            stats.conflicts += 1
            sim.schedule(RETRY_BACKOFF, lambda: client_loop(zipf))

        def work_then_commit():
            def commit():
                manager.release_all(tx_id)
                stats.committed += 1
                stats.latency.record(sim.now - started)
                sim.schedule(THINK_TIME, lambda: client_loop(zipf))

            sim.schedule(WORK_TIME, commit)

        def acquire_second():
            try:
                granted = manager.acquire(
                    tx_id, key_b,
                    on_grant=lambda: sim.call_soon(work_then_commit),
                )
            except DeadlockDetected:
                restart()
                return
            if granted:
                work_then_commit()

        try:
            granted = manager.acquire(
                tx_id, key_a, on_grant=lambda: sim.call_soon(acquire_second)
            )
        except DeadlockDetected:
            restart()
            return
        if granted:
            acquire_second()

    for client in range(clients):
        zipf = ZipfGenerator(sim.fork_rng(), ENTITY_COUNT, ZIPF_THETA)
        sim.schedule(0.01 * client, lambda bound=zipf: client_loop(bound))
    sim.run(until=HORIZON + 200.0)
    return _summarise(stats)


def _summarise(stats: _Stats) -> dict[str, float]:
    return {
        "throughput": stats.committed / HORIZON,
        "mean_latency": stats.latency.mean,
        "conflicts": float(stats.conflicts),
    }


def sweep() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E4",
        title="Solipsistic transactions vs 2PL and OCC under contention",
        claim=(
            "solipsistic commits never wait, deadlock, or abort; 2PL pays "
            "waits and deadlocks, OCC pays validation aborts, and both "
            "gaps widen with contention (2.10)"
        ),
        headers=[
            "clients",
            "soli_tput", "soli_lat", "soli_conf",
            "2pl_tput", "2pl_lat", "2pl_conf",
            "occ_tput", "occ_lat", "occ_conf",
        ],
        notes=(
            "conflicts = deadlock victims (2PL) or validation aborts (OCC); "
            "solipsistic conflicts are composed by the merge infrastructure "
            "instead of surfacing as failures"
        ),
    )
    for clients in (2, 4, 8, 16):
        solipsistic = run_solipsistic(clients)
        pessimistic = run_2pl(clients)
        optimistic = run_occ(clients)
        report.add_row(
            clients,
            solipsistic["throughput"], solipsistic["mean_latency"],
            solipsistic["conflicts"],
            pessimistic["throughput"], pessimistic["mean_latency"],
            pessimistic["conflicts"],
            optimistic["throughput"], optimistic["mean_latency"],
            optimistic["conflicts"],
        )
    return report


def test_e04_solipsistic_cc(benchmark):
    solipsistic = benchmark(run_solipsistic, 8)
    pessimistic = run_2pl(8)
    optimistic = run_occ(8)
    assert solipsistic["conflicts"] == 0
    assert solipsistic["throughput"] >= pessimistic["throughput"]
    assert solipsistic["throughput"] >= optimistic["throughput"]
    assert pessimistic["conflicts"] > 0 or pessimistic["mean_latency"] > WORK_TIME
    assert optimistic["conflicts"] > 0


if __name__ == "__main__":
    sweep().print()
