"""Run every experiment sweep (E1–E12) and print the full reports.

This is the script that regenerates the tables recorded in
EXPERIMENTS.md::

    python benchmarks/run_all.py
    python benchmarks/run_all.py --json-out experiments.json
    python benchmarks/run_all.py --trace-out trace.json

Each experiment module also runs standalone
(``python benchmarks/bench_eNN_*.py``) and as a pytest-benchmark target
(``pytest benchmarks/ --benchmark-only``).  With ``--json-out`` the
reports are additionally written as machine-readable JSON, so CI and
trend tooling can diff results across commits.

The suite ends with a **traced demo write**: one asynchronously
replicated insert run under ``with_tracing()``, whose causal tree
(origin append → log ship → remote apply → secondary-index refresh) is
printed as a timeline together with the metrics report.  With
``--trace-out`` the trace is also exported as JSON, validated against
the checked-in ``benchmarks/trace_schema.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import Cluster
from repro.obs.export import trace_json, validate_trace


def traced_demo(trace_out: str = "") -> None:
    """One traced async-replication write, timeline + metrics printed."""
    cluster = (
        Cluster.build(seed=7)
        .with_network(latency=5.0)
        .with_replicas(2, mode="master_slave", ship_interval=10.0)
        .with_batching(max_batch=64)
        .with_tracing()
        .create()
    )
    # The slave maintains an asynchronously refreshed secondary index
    # (principle 2.3): its refresh spans chain onto the remote apply.
    (slave,) = cluster.replication.slaves.values()
    index = slave.store.register_index("order", "status")
    cluster.sim.schedule_at(30.0, index.refresh, label="index-refresh")
    cluster.replication.write_insert("order", "o-1", {"total": 9, "status": "new"})
    cluster.sim.run(until=40.0)

    print("\n== Traced demo write (master with one slave) ==")
    print("one insert at the master; every hop of its journey below is a")
    print("span in one causal trace, timed in virtual time:\n")
    print(cluster.timeline())
    print("\nmetrics registry after the run:")
    print(cluster.metrics_report().render())

    if trace_out:
        schema = json.loads(
            (REPO_ROOT / "benchmarks" / "trace_schema.json").read_text()
        )
        payload = cluster.trace_payload(demo="async-replicated-write", seed=7)
        problems = validate_trace(payload, schema)
        if problems:
            raise SystemExit(
                "exported trace violates benchmarks/trace_schema.json:\n  "
                + "\n  ".join(problems)
            )
        pathlib.Path(trace_out).write_text(
            trace_json(cluster.tracer, {"demo": "async-replicated-write", "seed": 7}),
            encoding="utf-8",
        )
        print(f"(trace exported to {trace_out}, schema-valid)")

EXPERIMENTS = [
    "bench_core_hotpaths",
    "bench_columnar",
    "bench_dataplane",
    "bench_frontdoor",
    "bench_geo",
    "bench_isolation",
    "bench_e01_availability",
    "bench_e02_deferred_updates",
    "bench_e03_soups_vs_2pc",
    "bench_e04_solipsistic_cc",
    "bench_e05_apologies",
    "bench_e06_lsdb_rollup",
    "bench_e07_step_collapsing",
    "bench_e08_insert_only_growth",
    "bench_e09_out_of_order",
    "bench_e10_mixed_consistency",
    "bench_e11_ops_vs_state",
    "bench_e12_convergence",
    "bench_a01_idempotence_ablation",
    "bench_a02_propagation_modes",
    "bench_a03_reorder_buffer",
    "bench_a04_relocation",
    "bench_a05_elasticity",
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json-out", type=str, default="", metavar="PATH",
        help="also write every report as machine-readable JSON to PATH",
    )
    parser.add_argument(
        "--trace-out", type=str, default="", metavar="PATH",
        help="export the demo write's trace as schema-validated JSON",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    started = time.perf_counter()
    reports = []
    for name in EXPERIMENTS:
        module = importlib.import_module(name)
        report = module.sweep()
        report.print()
        reports.append(report.to_dict())
    elapsed = time.perf_counter() - started
    if args.json_out:
        payload = {"elapsed_seconds": elapsed, "experiments": reports}
        pathlib.Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    traced_demo(trace_out=args.trace_out)
    print(f"\n(all {len(EXPERIMENTS)} experiment sweeps completed in "
          f"{elapsed:.1f}s wall-clock)")


if __name__ == "__main__":
    main()
