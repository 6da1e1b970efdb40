"""The paper's claims, gated in tier-1: live bench assertions plus recorded rows.

* ``test_bench_claim`` calls every ``test_*`` function in
  ``benchmarks/bench_*.py`` with a pass-through ``benchmark`` object, so
  each virtual-time claim (E1-E12, A1-A5, the isolation matrix,
  front-door goodput, the geo WAN ratio, the hot-set hit ratio and zero
  stale-beyond-bound serves) is recomputed on every run.  A new bench
  script's claim joins with no edit here.
* ``test_recorded_claim`` checks one row of :data:`RECORDED` against the
  committed ``BENCH_*.json`` artefact it names.  Where a bench module
  names a bound, the row reads that constant; a literal is a bound no
  script defines.

Wall-clock regressions of the running system are the end-to-end
ladder's job (``benchmarks/e2e``), not this file's.
"""

from __future__ import annotations

import importlib
import json
import operator
import pathlib
import sys

import pytest

from repro.partition.elasticity import MAX_CHURN_RATIO

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import bench_frontdoor  # noqa: E402
import bench_geo  # noqa: E402
import bench_hotpath  # noqa: E402
import bench_isolation  # noqa: E402


class PassThroughBenchmark:
    """Stands in for pytest-benchmark's fixture: runs the target once."""

    def __call__(self, target, *args, **kwargs):
        return target(*args, **kwargs)

    def pedantic(self, target, args=(), kwargs=None, **_timing):
        return target(*args, **(kwargs or {}))


def bench_claims() -> list[str]:
    """``module::function`` for every claim function the bench scripts define.

    Names only: binding the functions here would have pytest collect them
    and ask for the plugin's ``benchmark`` fixture.
    """
    return [
        f"{path.stem}::{name}"
        for path in sorted(BENCH_DIR.glob("bench_*.py"))
        for name in vars(importlib.import_module(path.stem))
        if name.startswith("test_")
    ]


@pytest.mark.parametrize("claim", bench_claims())
def test_bench_claim(claim):
    module, name = claim.split("::")
    getattr(importlib.import_module(module), name)(PassThroughBenchmark())


#: One row per recorded claim: (artefact, dotted JSON path, operator, bound).
RECORDED = (
    # Core hot paths: >= 3x on the two metrics that carry the claim.
    *(("BENCH_core_hotpaths.json", f"speedup.{metric}", ">=", 3.0)
      for metric in ("fold_throughput_eps", "feed_events_from_origin_ops")),
    # Data plane: frame-64 shipping, wire messages saved, and recovery
    # time independent of log length.
    ("BENCH_dataplane.json", "speedup.ship_throughput_eps", ">=", 5.0),
    ("BENCH_dataplane.json", "speedup.wire_message_reduction", ">=", 10.0),
    ("BENCH_dataplane.json", "speedup.recovery_independence_ratio", "<=", 3.0),
    # Columnar log: arena creation, fused fold, byte-exact frame codec.
    ("BENCH_columnar.json", "speedup.event_create", ">=", 3.0),
    ("BENCH_columnar.json", "speedup.fold_throughput", ">=", 2.0),
    ("BENCH_columnar.json", "speedup.frame_codec_roundtrip_equal", "is", True),
    # Front door at 2x overload: degrade, don't reject.
    ("BENCH_frontdoor.json", "acceptance.goodput_ratio", ">=",
     bench_frontdoor.MIN_GOODPUT_RATIO),
    ("BENCH_frontdoor.json", "acceptance.reject_ratio", "<=",
     bench_frontdoor.MAX_REJECT_RATIO),
    # Geo: the 2-of-3 WAN bill, a whole-site outage, reconvergence.
    ("BENCH_geo.json", "acceptance.wan_ratio", "<=", bench_geo.MAX_WAN_RATIO),
    ("BENCH_geo.json", "acceptance.failover_availability", ">=",
     bench_geo.MIN_FAILOVER_AVAILABILITY),
    ("BENCH_geo.json", "acceptance.converged_after_recovery", "is", True),
    # Isolation: the artefact's own diff against THEORY ...
    ("BENCH_isolation.json", "acceptance.matches_theory", "is", True),
    # ... and the acceptance cells, re-derived here so the gate does not
    # trust the artefact's own ``matches_theory`` verdict alone:
    # serializable admits nothing; SI forbids lost updates and long forks
    # but admits write skew; NMSI additionally admits long forks and
    # non-monotonic snapshots while still forbidding lost updates;
    # solipsistic admits lost updates.
    ("BENCH_isolation.json", "matrix.serializable.dirty_read.materialized", "is", False),
    ("BENCH_isolation.json", "matrix.serializable.read_skew.materialized", "is", False),
    ("BENCH_isolation.json", "matrix.serializable.lost_update.materialized", "is", False),
    ("BENCH_isolation.json", "matrix.serializable.write_skew.materialized", "is", False),
    ("BENCH_isolation.json", "matrix.serializable.long_fork.materialized", "is", False),
    ("BENCH_isolation.json",
     "matrix.serializable.non_monotonic_snapshot.materialized", "is", False),
    ("BENCH_isolation.json", "matrix.snapshot.lost_update.materialized", "is", False),
    ("BENCH_isolation.json", "matrix.snapshot.long_fork.materialized", "is", False),
    ("BENCH_isolation.json", "matrix.snapshot.write_skew.materialized", "is", True),
    ("BENCH_isolation.json", "matrix.nmsi.lost_update.materialized", "is", False),
    ("BENCH_isolation.json", "matrix.nmsi.long_fork.materialized", "is", True),
    ("BENCH_isolation.json", "matrix.nmsi.non_monotonic_snapshot.materialized", "is", True),
    ("BENCH_isolation.json", "matrix.solipsistic.lost_update.materialized", "is", True),
    # SI under the open-loop load: no costlier than serializable; only
    # solipsism loses updates.
    ("BENCH_isolation.json", "acceptance.si_abort_ratio", "<=",
     bench_isolation.MAX_SI_ABORT_RATIO),
    ("BENCH_isolation.json", "acceptance.si_latency_ratio", "<=",
     bench_isolation.MAX_SI_LATENCY_RATIO),
    ("BENCH_isolation.json", "acceptance.lost_updates.solipsistic", ">", 0),
    ("BENCH_isolation.json", "acceptance.lost_updates.nmsi", "==", 0),
    ("BENCH_isolation.json", "acceptance.lost_updates.snapshot", "==", 0),
    ("BENCH_isolation.json", "acceptance.lost_updates.serializable", "==", 0),
    # Hot path on the theta=0.99 scenario; violations summed over all.
    ("BENCH_hotpath.json", "acceptance.read_speedup", ">=", bench_hotpath.MIN_READ_SPEEDUP),
    ("BENCH_hotpath.json", "acceptance.hot_hit_ratio", ">=", bench_hotpath.MIN_HOT_HIT_RATIO),
    ("BENCH_hotpath.json", "acceptance.stale_beyond_bound_serves", "==", 0),
    # Elasticity: ring churn against the mod-N reshuffle, under chaos.
    ("BENCH_elasticity.json", "churn_ratio_ring_vs_modn", "<=", MAX_CHURN_RATIO),
    ("BENCH_elasticity.json", "invariants_ok", "is", True),
)

OPERATORS = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "==": operator.eq,
    "is": operator.is_,
}


def check_row(data: dict, path: str, op: str, bound) -> None:
    """Fail unless the value at dotted ``path`` in ``data`` is ``op bound``."""
    value = data
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            raise AssertionError(f"{path} missing")
        value = value[part]
    assert OPERATORS[op](value, bound), f"{path} = {value!r}, must be {op} {bound!r}"


@pytest.mark.parametrize(
    "artefact, path, op, bound", RECORDED,
    ids=[f"{artefact}:{path}" for artefact, path, _, _ in RECORDED],
)
def test_recorded_claim(artefact, path, op, bound):
    data = json.loads((ROOT / artefact).read_text(encoding="utf-8"))
    check_row(data, path, op, bound)


def test_row_checker_rejects_a_value_past_its_bound():
    with pytest.raises(AssertionError, match="must be <= 0.6"):
        check_row({"acceptance": {"wan_ratio": 0.7}}, "acceptance.wan_ratio", "<=", 0.6)


def test_row_checker_rejects_a_missing_path():
    with pytest.raises(AssertionError, match="acceptance.wan_ratio missing"):
        check_row({"acceptance": {}}, "acceptance.wan_ratio", "<=", 0.6)
