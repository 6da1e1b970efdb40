"""The elasticity harness: staged scale-out under live traffic + chaos.

The end-to-end experiment behind principle 2.5's dynamic entity
location: a cluster of serialization units on a consistent-hash ring
serves a seeded open-loop write workload and pinned read sessions
while the membership grows one unit at a time (e.g. 4 -> 8), each step
a planned, batched, retried bulk rebalance — optionally with a
:class:`~repro.chaos.engine.ChaosEngine` crashing and partitioning the
unit hosts the whole time.

What it measures:

* **churn** — keys the ring actually relocates across the staged
  scale-out, against the keys the old mod-N ``HashRouter`` would have
  reshuffled over the same membership steps (the whole argument for
  consistent hashing, as a number);
* **relocation throughput** — completed handoffs per virtual time unit
  while the rebalance window was open;
* **availability** — the fraction of session reads and workload writes
  that succeeded *during* the rebalance window (a scale-out that takes
  the data offline is not elastic);
* **safety** — the chaos subsystem's invariant checkers, re-aimed at a
  partitioned world: convergence (the directory and the final ring
  agree on where everything lives, and it all lives there),
  no-lost-acknowledged-writes (every acked write is readable through
  the directory afterwards) and monotonic reads per session.

Determinism contract: everything draws from streams forked off the one
simulator seed, so :func:`run_elastic_scaleout` twice with the same
config yields byte-identical :func:`elasticity_report_json` — asserted
in ``tests/test_elasticity_chaos.py`` and the CI smoke step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.bench.workloads import open_loop_arrivals
from repro.chaos.invariants import (
    InvariantReport,
    check_convergence,
    check_monotonic_reads,
    check_no_lost_acked_writes,
)
from repro.cluster import Cluster
from repro.core.policy import RetryPolicy, TimeoutPolicy
from repro.merge.deltas import Delta
from repro.partition.ring import RebalancePlanner
from repro.partition.router import HashRouter
from repro.sim.network import Node

__all__ = [
    "MAX_CHURN_RATIO",
    "ElasticityConfig",
    "run_elastic_scaleout",
    "elasticity_report_json",
]

ENTITY_TYPE = "counter"
#: Keys the ring may relocate across the scale-out, as a fraction of
#: what the staged mod-N reshuffle would move; a run above it is not ok.
MAX_CHURN_RATIO = 0.6


@dataclass(frozen=True)
class ElasticityConfig:
    """Parameters of one staged scale-out run."""

    seed: int = 0
    start_units: int = 4
    end_units: int = 8
    vnodes: int = 64
    keys: int = 96
    duration: float = 800.0  # workload (and chaos) window
    quiesce_grace: float = 400.0  # quiet drain time after the window
    write_rate: float = 0.5  # mean writes per virtual time unit
    key_skew: float = 0.6
    sessions: int = 4
    read_interval: float = 11.0
    scale_start: float = 120.0  # when the first unit is added
    scale_gap: float = 30.0  # pause between staged additions
    batch_size: int = 8
    batch_interval: float = 2.0
    network_latency: float = 2.0
    profile: Optional[str] = None  # chaos profile name; None = no chaos

    def unit_names(self) -> list[str]:
        return [f"u{index}" for index in range(1, self.end_units + 1)]

    def to_dict(self) -> dict[str, Any]:
        return {
            "batch_size": self.batch_size,
            "duration": self.duration,
            "end_units": self.end_units,
            "keys": self.keys,
            "profile": self.profile or "none",
            "scale_start": self.scale_start,
            "seed": self.seed,
            "start_units": self.start_units,
            "vnodes": self.vnodes,
            "write_rate": self.write_rate,
        }


class _PlacementView:
    """Adapts a router's view of the partitioned data to the replica
    interface the chaos invariant checkers expect (``node_id`` +
    ``observable_state``): the state of every live entity, read at the
    unit the router claims owns it.  Two views converge exactly when
    the routing function and the physical placement agree everywhere.
    """

    def __init__(self, name: str, router: Any, units: Mapping[str, Any]):
        self.node_id = name
        self._router = router
        self._units = units

    def observable_state(self) -> dict[tuple[str, str], dict[str, Any]]:
        state: dict[tuple[str, str], dict[str, Any]] = {}
        for name in sorted(self._units):
            store = self._units[name].store
            for ref, entity in store.current_state().items():
                if entity.deleted or entity.obsolete:
                    continue
                if self._router.unit_for(*ref) == name:
                    state[ref] = dict(entity.fields)
        return state


def _staged_modn_churn(config: ElasticityConfig, keys: list[str]) -> int:
    """Keys a mod-N ``HashRouter`` would reshuffle over the same staged
    membership growth (the ablation baseline, computed offline)."""
    names = config.unit_names()
    moved = 0
    for count in range(config.start_units, config.end_units):
        old = HashRouter(names[:count])
        new = HashRouter(names[:count + 1])
        moved += sum(
            1
            for key in keys
            if old.unit_for(ENTITY_TYPE, key) != new.unit_for(ENTITY_TYPE, key)
        )
    return moved


def run_elastic_scaleout(config: ElasticityConfig) -> dict[str, Any]:
    """Run one staged scale-out scenario; returns the deterministic
    report dict (see module docstring for what is measured)."""
    start_names = config.unit_names()[: config.start_units]
    added_names = config.unit_names()[config.start_units:]

    builder = (
        Cluster.build(seed=config.seed)
        .with_network(latency=config.network_latency)
        .with_ring(
            *start_names,
            vnodes=config.vnodes,
            batch_size=config.batch_size,
            batch_interval=config.batch_interval,
        )
        .with_policies(
            retry=RetryPolicy.exponential(max_attempts=8, base_delay=4.0),
            timeout=TimeoutPolicy.none(),
        )
    )
    if config.profile is not None:
        builder = builder.with_chaos(profile=config.profile)
    cluster = builder.create()
    sim = cluster.sim

    # Every unit host exists on the network from t=0 (provisioned ahead
    # of the scale-out), so chaos can crash and partition all of them.
    nodes: dict[str, Node] = {
        name: cluster.network.register(Node(name))
        for name in config.unit_names()
    }
    if cluster.rebalancer is not None:
        cluster.rebalancer.gate = lambda source, target: (
            not nodes[source].crashed
            and not nodes[target].crashed
            and not cluster.network.is_partitioned(source, target)
        )

    # ---- recorder ------------------------------------------------------ #
    rec: dict[str, Any] = {
        "acked": 0, "rejected": 0, "denied": 0,
        "reads_ok": 0, "reads_skipped": 0, "reads_missing": 0,
        "window_reads_ok": 0, "window_reads_skipped": 0,
        "window_writes_ok": 0, "window_writes_blocked": 0,
        "expected": {}, "sessions": {}, "overrides_peak": 0,
        "steps": [], "last_done_at": config.scale_start,
    }
    rec["sessions"] = {f"s{index}": [] for index in range(1, config.sessions + 1)}

    def in_window() -> bool:
        return sim.now >= config.scale_start and not (
            len(rec["steps"]) == len(added_names)
            and all(step["done"] for step in rec["steps"])
        )

    # ---- preload: every key exists before the traffic starts ----------- #
    key_names = [f"k{index}" for index in range(config.keys)]
    for key in key_names:
        owner = cluster.directory.unit_for(ENTITY_TYPE, key)
        cluster.units[owner].store.insert(ENTITY_TYPE, key, {"value": 0})
        rec["expected"][(ENTITY_TYPE, key)] = {"value": 0}

    # ---- workload: seeded open-loop deltas through the directory ------- #
    workload_rng = sim.fork_rng()
    arrivals = open_loop_arrivals(
        workload_rng,
        rate=config.write_rate,
        duration=config.duration,
        keys=key_names,
        theta=config.key_skew,
    )

    def do_write(arrival: Any) -> None:
        unit_name = cluster.directory.unit_for(ENTITY_TYPE, arrival.key)
        windowed = in_window()
        if nodes[unit_name].crashed:
            rec["rejected"] += 1
            if windowed:
                rec["window_writes_blocked"] += 1
            return
        unit = cluster.mover.units[unit_name]
        if unit.locks.is_locked(f"{ENTITY_TYPE}/{arrival.key}"):
            # The relocation lock: writers deny during the handoff.
            rec["denied"] += 1
            if windowed:
                rec["window_writes_blocked"] += 1
            return
        amount = 1 + arrival.index % 3
        unit.store.apply_delta(
            ENTITY_TYPE, arrival.key, Delta.add("value", amount)
        )
        rec["acked"] += 1
        if windowed:
            rec["window_writes_ok"] += 1
        sums = rec["expected"][(ENTITY_TYPE, arrival.key)]
        sums["value"] += amount

    for arrival in arrivals:
        sim.schedule_at(arrival.at, lambda a=arrival: do_write(a), label="elastic-write")

    # ---- sessions: repeated reads of a pinned key each ----------------- #
    read_horizon = config.duration + config.quiesce_grace

    def do_read(session_id: str, key: str) -> None:
        unit_name = cluster.directory.unit_for(ENTITY_TYPE, key)
        windowed = in_window()
        if nodes[unit_name].crashed:
            rec["reads_skipped"] += 1
            if windowed:
                rec["window_reads_skipped"] += 1
            return
        state = cluster.mover.units[unit_name].store.get(ENTITY_TYPE, key)
        if state is None or state.deleted:
            rec["reads_missing"] += 1  # an unreachable entity: a bug
            return
        rec["sessions"][session_id].append(state.fields.get("value", 0))
        rec["reads_ok"] += 1
        if windowed:
            rec["window_reads_ok"] += 1

    for index, session_id in enumerate(sorted(rec["sessions"])):
        key = key_names[index % len(key_names)]
        tick = config.read_interval * (1 + index % 2)
        at = tick
        while at < read_horizon:
            sim.schedule_at(
                at,
                lambda s=session_id, k=key: do_read(s, k),
                label="elastic-read",
            )
            at += tick

    # ---- overrides gauge: watch directory memory during the rebalance -- #
    def poll_overrides() -> None:
        rec["overrides_peak"] = max(
            rec["overrides_peak"], cluster.directory.override_count
        )

    at = config.scale_start
    while at <= read_horizon:
        sim.schedule_at(at, poll_overrides, label="elastic-poll")
        at += 5.0

    # ---- staged scale-out: add one unit, wait, add the next ------------ #
    ring_planned = {"total": 0}

    def next_step() -> None:
        if not added_names:
            return
        name = added_names.pop(0)

        def done(run: Any) -> None:
            step["done"] = True
            step["report"] = run.report.to_dict()
            rec["last_done_at"] = max(rec["last_done_at"], sim.now)
            poll_overrides()
            if added_names:
                sim.schedule(config.scale_gap, next_step, label="elastic-scale")

        step = {"unit": name, "started_at": sim.now, "done": False, "report": None}
        rec["steps"].append(step)
        run = cluster.scale_out(name, on_done=done)
        ring_planned["total"] += run.plan.keys_moved

    sim.schedule_at(config.scale_start, next_step, label="elastic-scale")

    # ---- chaos over the whole workload window -------------------------- #
    if cluster.chaos is not None:
        cluster.chaos.inject(config.duration)
        sim.schedule_at(config.duration, cluster.chaos.quiesce, label="elastic-quiesce")

    sim.run(until=read_horizon)
    # Drain any still-retrying rebalance work (chaos may have parked
    # moves on long backoffs past the horizon).
    while any(not step["done"] for step in rec["steps"]) and sim.step():
        pass

    # ---- repair passes: re-plan stragglers the chaos pinned ------------ #
    repair_rounds = 0
    while repair_rounds < 10:
        residual = RebalancePlanner(cluster.directory, cluster.ring).plan_from_units(
            cluster.mover.units
        )
        if not residual.moves:
            break
        repair_rounds += 1
        repair = cluster.rebalancer.execute(residual, new_router=cluster.ring)
        repair.wait()
    poll_overrides()

    # ---- invariants ----------------------------------------------------- #
    directory_view = _PlacementView("directory", cluster.directory, cluster.mover.units)
    ring_view = _PlacementView("ring", cluster.ring, cluster.mover.units)
    invariants = InvariantReport(
        results=[
            check_convergence([directory_view, ring_view]),
            check_no_lost_acked_writes([directory_view], rec["expected"]),
            check_monotonic_reads(rec["sessions"]),
        ]
    )

    # ---- report ---------------------------------------------------------- #
    steps = [
        {"started_at": step["started_at"], "unit": step["unit"], **(step["report"] or {})}
        for step in rec["steps"]
    ]
    moves_completed = sum(step.get("completed", 0) for step in steps)
    moves_failed = sum(step.get("failed", 0) for step in steps)
    window = (config.scale_start, rec["last_done_at"])
    window_span = max(window[1] - window[0], 1e-9)
    modn_moves = _staged_modn_churn(config, key_names)
    churn_ratio = ring_planned["total"] / modn_moves if modn_moves else 0.0
    window_reads = rec["window_reads_ok"] + rec["window_reads_skipped"]
    window_writes = rec["window_writes_ok"] + rec["window_writes_blocked"]
    report = {
        "config": config.to_dict(),
        "elasticity": {
            "churn_ratio": round(churn_ratio, 6),
            "modn_keys_moved": modn_moves,
            "moves_completed": moves_completed,
            "moves_failed": moves_failed,
            "overrides_final": cluster.directory.override_count,
            "overrides_peak": rec["overrides_peak"],
            "relocation_throughput": round(moves_completed / window_span, 6),
            "repair_rounds": repair_rounds,
            "ring_keys_moved": ring_planned["total"],
            "steps": steps,
            "window": list(window),
        },
        "availability": {
            "reads_during_rebalance": round(
                rec["window_reads_ok"] / window_reads, 6
            ) if window_reads else 1.0,
            "writes_during_rebalance": round(
                rec["window_writes_ok"] / window_writes, 6
            ) if window_writes else 1.0,
        },
        "faults": (
            cluster.chaos.schedule_summary() if cluster.chaos is not None else {}
        ),
        "invariants": invariants.to_dict(),
        "workload": {
            "reads_missing": rec["reads_missing"],
            "reads_ok": rec["reads_ok"],
            "reads_skipped": rec["reads_skipped"],
            "writes_acked": rec["acked"],
            "writes_denied_by_handoff": rec["denied"],
            "writes_rejected": rec["rejected"],
        },
        "ok": (
            invariants.ok
            and rec["reads_missing"] == 0
            and cluster.ring.units == config.unit_names()
            and (modn_moves == 0 or churn_ratio <= MAX_CHURN_RATIO)
        ),
    }
    return report


def elasticity_report_json(report: dict[str, Any]) -> str:
    """Canonical JSON rendering — the byte-determinism surface."""
    return json.dumps(report, sort_keys=True, indent=2)
