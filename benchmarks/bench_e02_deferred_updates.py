"""E2 — Deferred vs synchronous secondary updates (the SAP model).

Paper claim (principle 2.3, section 3.2): completing a transaction when
the pending-actions descriptor commits "reduces user wait times", at the
price of a window in which an immediate query "may not yet [see] the
result of the transaction"; synchronous updates at commit avoid the
inconsistency but increase response time.

Scenario: order postings, each with one deferred secondary update (the
revenue aggregate) of configurable cost.  We sweep the action cost and
report user response time and the read-your-writes staleness window for
both update modes, plus whether a probe read issued right at the ack
sees the aggregate.
"""

from __future__ import annotations

from repro.bench.report import ExperimentReport
from repro.core.transaction import TransactionManager, UpdateMode
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.obs.metrics import Histogram
from repro.sim.scheduler import Simulator

TRANSACTIONS = 50
COMMIT_COST = 1.0
DEFER_LAG = 1.0


def run_mode(update_mode: UpdateMode, action_cost: float) -> dict[str, float]:
    sim = Simulator(seed=1)
    store = LSDBStore(clock=lambda: sim.now)
    manager = TransactionManager(
        store, sim=sim, update_mode=update_mode,
        commit_cost=COMMIT_COST, defer_lag=DEFER_LAG,
    )
    response = Histogram("response", {})
    staleness = Histogram("staleness", {})
    stale_probe_hits = 0

    for index in range(TRANSACTIONS):
        tx = manager.begin()
        tx.insert("order", f"o{index}", {"total": 10})
        tx.defer(
            "aggregate",
            lambda s: s.apply_delta("revenue", "day", Delta.add("amount", 10)),
            cost=action_cost,
        )
        receipt = tx.commit()
        response.record(receipt.response_time)
        staleness.record(receipt.staleness_window)
        # Probe: does a read issued right at the ack see this
        # transaction's aggregate contribution?
        sim.run(until=receipt.acked_at)
        aggregate = store.get("revenue", "day")
        seen = aggregate.fields["amount"] if aggregate else 0
        if seen < 10 * (index + 1):
            stale_probe_hits += 1
        sim.run()  # drain the deferred actions before the next user op

    return {
        "mean_response": response.mean,
        "p99_response": response.percentile(99),
        "mean_staleness_window": staleness.mean,
        "stale_read_fraction": stale_probe_hits / TRANSACTIONS,
    }


def sweep() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E2",
        title="Deferred vs synchronous secondary updates",
        claim=(
            "deferred updates cut user response time to the descriptor "
            "commit but open a read-your-writes staleness window; "
            "synchronous updates invert the tradeoff (2.3, 3.2)"
        ),
        headers=[
            "action_cost",
            "deferred_resp",
            "sync_resp",
            "deferred_staleness",
            "deferred_stale_reads",
            "sync_stale_reads",
        ],
        notes=(
            "deferred response time is flat in action cost; synchronous "
            "response grows linearly; stale reads occur only in deferred mode"
        ),
    )
    for action_cost in (1.0, 2.0, 5.0, 10.0, 20.0):
        deferred = run_mode(UpdateMode.DEFERRED, action_cost)
        synchronous = run_mode(UpdateMode.SYNCHRONOUS, action_cost)
        report.add_row(
            action_cost,
            deferred["mean_response"],
            synchronous["mean_response"],
            deferred["mean_staleness_window"],
            deferred["stale_read_fraction"],
            synchronous["stale_read_fraction"],
        )
    return report


def test_e02_deferred_updates(benchmark):
    deferred = benchmark(run_mode, UpdateMode.DEFERRED, 10.0)
    synchronous = run_mode(UpdateMode.SYNCHRONOUS, 10.0)
    # Deferred mode responds faster...
    assert deferred["mean_response"] < synchronous["mean_response"]
    # ...but exposes stale reads, which synchronous mode never does.
    assert deferred["stale_read_fraction"] == 1.0
    assert synchronous["stale_read_fraction"] == 0.0
    assert deferred["mean_staleness_window"] > 0


if __name__ == "__main__":
    sweep().print()
