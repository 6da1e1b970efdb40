"""E7 — Vertical and horizontal step collapsing.

Paper claim (section 3.1): "Infrastructure could collapse steps
vertically, turning multiple process steps in the same process into a
single sequential process step [...] Infrastructure could also collapse
process steps horizontally, turning multiple transactions for different
processes into a single transaction. [...] Having small transaction
granularity in the programming model allows smart implementations to
'right-size' execution to optimize throughput, or trade off throughput
for response time."

Scenario A (vertical): ``TRANSFERS`` HR employee-transfer processes run
through the four-step chain either as queued steps (each step pays a
queue hop + its own commit) or as one fused transaction.  Metric:
end-to-end process latency and transactions committed.

Scenario B (horizontal): a tally step processes ``EVENTS`` events either
one-per-transaction or in batches of ``batch``.  Metric: transactions
committed (commit overhead saved) and mean event-to-commit latency
(the response-time cost of waiting for a batch to fill).
"""

from __future__ import annotations

from repro.apps.hr import HRApp
from repro.bench.report import ExperimentReport
from repro.core.process import ProcessEngine, ProcessStep
from repro.core.transaction import TransactionManager
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.obs.metrics import Histogram
from repro.queues.reliable import ReliableQueue
from repro.sim.scheduler import Simulator

TRANSFERS = 30
EVENTS = 120
QUEUE_HOP = 2.0
COMMIT_COST = 1.0


def run_vertical(collapsed: bool, seed: int = 0) -> dict[str, float]:
    sim = Simulator(seed=seed)
    queue = ReliableQueue(sim, delivery_delay=QUEUE_HOP)
    store = LSDBStore(clock=lambda: sim.now)
    manager = TransactionManager(store, sim=sim, queue=queue, commit_cost=COMMIT_COST)
    engine = ProcessEngine(manager, queue)
    hr = HRApp(engine, collapsed=collapsed)
    latency = Histogram("latency", {})
    start_times: dict[str, float] = {}

    for index in range(TRANSFERS):
        employee = f"emp{index}"
        hr.hire(employee, "sales", "bundle")
    transfer_ids = {}
    for index in range(TRANSFERS):
        employee = f"emp{index}"
        at = 5.0 * index

        def kick_off(bound_employee=employee):
            start_times[bound_employee] = sim.now
            transfer_ids[bound_employee] = hr.start_transfer(
                bound_employee, "marketing", "delegate"
            )

        sim.schedule_at(at, kick_off)
    sim.run()
    for employee, started in start_times.items():
        status = hr.status(employee, transfer_ids[employee])
        assert status.complete, f"transfer for {employee} did not finish"
        notice = store.get(
            "payroll_notice", f"notice-{employee}-{transfer_ids[employee]}"
        )
        latency.record(notice.last_timestamp - started)
    return {
        "mean_process_latency": latency.mean,
        "transactions": float(manager.commits),
        "steps_run": float(engine.stats.steps_run),
    }


def run_horizontal(batch: int, seed: int = 0) -> dict[str, float]:
    sim = Simulator(seed=seed)
    queue = ReliableQueue(sim, delivery_delay=QUEUE_HOP)
    store = LSDBStore(clock=lambda: sim.now)
    manager = TransactionManager(store, sim=sim, queue=queue, commit_cost=COMMIT_COST)
    engine = ProcessEngine(manager, queue)
    latency = Histogram("latency", {})

    def tally(ctx):
        ctx.apply_delta("stats", "totals", Delta.add("n", 1))
        latency.record(sim.now - ctx.message.payload["at"])

    step = ProcessStep("tally", "tick", tally)
    if batch <= 1:
        engine.register_step(step)
    else:
        engine.collapse_horizontal("tally-batched", step, batch_size=batch)

    for index in range(EVENTS):
        at = 1.0 * index
        sim.schedule_at(
            at, lambda bound_at=at: engine.start_process("tick", {"at": bound_at})
        )
    sim.run()
    total = store.get("stats", "totals")
    return {
        "processed": float(total.fields["n"]) if total else 0.0,
        "transactions": float(manager.commits),
        "mean_event_latency": latency.mean,
    }


def sweep() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E7",
        title="Vertical & horizontal step collapsing",
        claim=(
            "collapsing trades the programming model's small steps for "
            "execution efficiency: vertical collapse removes queue hops "
            "and per-step commits (lower latency, fewer transactions); "
            "horizontal collapse amortizes commits across events at the "
            "price of batching delay (3.1)"
        ),
        headers=["configuration", "transactions", "mean_latency", "detail"],
        notes=(
            "vertical rows: latency is end-to-end per process; horizontal "
            "rows: latency is event-to-commit, which grows as events wait "
            "for their batch to fill"
        ),
    )
    queued = run_vertical(collapsed=False)
    fused = run_vertical(collapsed=True)
    report.add_row(
        "vertical: 4 queued steps", queued["transactions"],
        queued["mean_process_latency"], f"{queued['steps_run']:.0f} steps run",
    )
    report.add_row(
        "vertical: collapsed", fused["transactions"],
        fused["mean_process_latency"], f"{fused['steps_run']:.0f} steps run",
    )
    for batch in (1, 4, 16):
        horizontal = run_horizontal(batch)
        report.add_row(
            f"horizontal: batch={batch}", horizontal["transactions"],
            horizontal["mean_event_latency"],
            f"{horizontal['processed']:.0f} events",
        )
    return report


def test_e07_step_collapsing(benchmark):
    fused = benchmark(run_vertical, True)
    queued = run_vertical(False)
    # Collapsing removes queue hops: lower latency, fewer transactions.
    assert fused["mean_process_latency"] < queued["mean_process_latency"]
    assert fused["transactions"] < queued["transactions"]
    # Horizontal batching: fewer commits, higher event latency.  Use a
    # batch size that divides EVENTS so no partial batch is left
    # waiting (the sweep's batch=16 row shows that caveat).
    single = run_horizontal(1)
    batched = run_horizontal(4)
    assert batched["transactions"] < single["transactions"]
    assert batched["mean_event_latency"] > single["mean_event_latency"]
    assert batched["processed"] == single["processed"] == EVENTS


if __name__ == "__main__":
    sweep().print()
