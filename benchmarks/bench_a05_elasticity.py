"""A5 — Elastic scale-out churn, throughput, and availability.

Design choice under test (principle 2.5): "Entity location is
determined dynamically."  Elasticity is that principle under membership
change: a cluster that doubles from 4 to 8 serialization units should
relocate only the keys that *must* move (consistent hashing's
``~1/(N+1)`` per added unit), keep serving reads and writes while the
handoff runs, and end with a compacted directory that routes purely by
ring position.

The scenario is the shared harness in ``repro.partition.elasticity``:
a staged 4 -> 8 scale-out under an open-loop write workload (optionally
with a chaos fault profile), reported as deterministic JSON.  This
driver layers on the benchmark-facing views:

* **churn** — keys moved by the ring vs the staged mod-N reshuffle the
  old ``HashRouter`` would have forced (the ablation baseline);
* **throughput** — relocations completed per unit of virtual time
  spent inside rebalance windows;
* **availability** — fraction of reads/writes that succeeded while a
  rebalance was in flight.

Run ``python benchmarks/bench_a05_elasticity.py --json-out FILE`` for
the machine-readable report; ``--quick`` is the CI smoke profile;
``--check-determinism`` runs the scenario twice and fails unless the
two reports are byte-identical.  Exit status is non-zero whenever an
invariant (no lost acknowledged writes, convergence, monotonic reads)
fails or the churn bound (<= 60% of mod-N) is violated.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.report import ExperimentReport
from repro.partition.elasticity import (
    MAX_CHURN_RATIO,
    ElasticityConfig,
    elasticity_report_json,
    run_elastic_scaleout,
)

#: Full benchmark scenario: 4 -> 8 under moderate chaos.
FULL = ElasticityConfig(seed=42, profile="moderate")

#: CI smoke scenario: smaller key population, no fault injection.
QUICK = ElasticityConfig(seed=3, keys=48, duration=300.0, quiesce_grace=100.0)


def make_config(args: argparse.Namespace) -> ElasticityConfig:
    base = QUICK if args.quick else FULL
    profile = base.profile if args.profile == "default" else (
        None if args.profile == "none" else args.profile
    )
    return ElasticityConfig(
        seed=base.seed if args.seed is None else args.seed,
        keys=base.keys,
        duration=base.duration,
        quiesce_grace=base.quiesce_grace,
        profile=profile,
    )


def headline(report: dict) -> dict[str, float]:
    """The benchmark-facing scalars, pulled out of the full report."""
    elasticity = report["elasticity"]
    availability = report["availability"]
    return {
        "keys_moved_fraction": round(
            elasticity["ring_keys_moved"] / max(1, report["config"]["keys"]), 4
        ),
        "churn_vs_modn": elasticity["churn_ratio"],
        "relocation_throughput": elasticity["relocation_throughput"],
        "read_availability": availability["reads_during_rebalance"],
        "write_availability": availability["writes_during_rebalance"],
        "overrides_final": float(elasticity["overrides_final"]),
    }


def sweep(config: ElasticityConfig = QUICK) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="A5",
        title="Elastic scale-out: ring churn vs mod-N reshuffle",
        claim=(
            "a staged 4->8 scale-out over the consistent-hash ring moves "
            "a small fraction of the keys a mod-N router would reshuffle, "
            "while reads and writes keep flowing (2.5)"
        ),
        headers=[
            "metric", "ring", "modn_baseline", "ratio",
        ],
        notes=(
            f"{config.keys} keys, seed {config.seed}, "
            f"profile {config.profile or 'none'}; staged "
            f"{config.start_units}->{config.end_units} scale-out under an "
            "open-loop write workload on the deterministic simulator"
        ),
    )
    result = run_elastic_scaleout(config)
    elasticity = result["elasticity"]
    report.add_row(
        "keys moved",
        float(elasticity["ring_keys_moved"]),
        float(elasticity["modn_keys_moved"]),
        elasticity["churn_ratio"],
    )
    report.add_row(
        "read availability during rebalance",
        result["availability"]["reads_during_rebalance"], 1.0,
        result["availability"]["reads_during_rebalance"],
    )
    report.add_row(
        "write availability during rebalance",
        result["availability"]["writes_during_rebalance"], 1.0,
        result["availability"]["writes_during_rebalance"],
    )
    return report


def test_a05_elasticity(benchmark):
    result = benchmark.pedantic(
        run_elastic_scaleout, args=(QUICK,), iterations=1, rounds=1
    )
    assert result["ok"], result["invariants"]
    assert result["elasticity"]["churn_ratio"] <= MAX_CHURN_RATIO
    assert result["elasticity"]["overrides_final"] == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small no-chaos scenario for CI smoke runs",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario seed",
    )
    parser.add_argument(
        "--profile", default="default",
        help="chaos profile name, 'none', or 'default' for the scenario's own",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="write the full deterministic JSON report to this path",
    )
    parser.add_argument(
        "--check-determinism", action="store_true",
        help="run twice and fail unless the reports are byte-identical",
    )
    args = parser.parse_args(argv)
    config = make_config(args)

    report = run_elastic_scaleout(config)
    payload = elasticity_report_json(report)
    if args.check_determinism:
        second = elasticity_report_json(run_elastic_scaleout(config))
        if payload != second:
            print("FAIL: report not byte-identical across two runs "
                  f"(seed {config.seed})", file=sys.stderr)
            return 2
        print(f"determinism: OK (seed {config.seed}, byte-identical)")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"report written to {args.json_out}")

    print(json.dumps({"headline": headline(report)}, indent=2, sort_keys=True))
    if not report["ok"]:
        print("FAIL: invariant or churn-bound violation", file=sys.stderr)
        print(json.dumps(report["invariants"], indent=2, sort_keys=True),
              file=sys.stderr)
        return 1
    print("ok: invariants hold, churn within bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
