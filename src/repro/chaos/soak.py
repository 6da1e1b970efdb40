"""The chaos soak harness: workload + faults + invariants, one report.

A soak run is the package's end-to-end experiment:

1. build an active/active replica group (the scheme the paper's
   principles are *for*) on a lossy network;
2. drive a seeded open-loop write workload while the
   :class:`~repro.chaos.engine.ChaosEngine` injects its fault schedule;
3. quiesce — stop the chaos, heal everything, let anti-entropy repair;
4. run the invariant checkers and emit one deterministic report.

Everything draws from streams forked off the one simulator seed, so
``run_soak(SoakConfig(seed=42))`` twice yields byte-identical JSON —
the property the CI chaos step and the determinism tests assert.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.bench.workloads import open_loop_arrivals
from repro.chaos.engine import ChaosEngine
from repro.chaos.invariants import (
    InvariantReport,
    InvariantResult,
    check_bounded_staleness,
    check_convergence,
    check_monotonic_reads,
    check_no_lost_acked_writes,
)
from repro.chaos.profiles import ChaosProfile, get_profile
from repro.merge.deltas import Delta
from repro.obs.metrics import MetricsRegistry
from repro.replication.active_active import ActiveActiveGroup
from repro.replication.batching import BatchPolicy
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


@dataclass(frozen=True)
class SoakConfig:
    """Parameters of one chaos soak run."""

    seed: int = 0
    profile: str | ChaosProfile = "moderate"
    replicas: int = 4
    duration: float = 2000.0  # chaos + workload window
    quiesce_grace: float = 500.0  # quiet repair time after the chaos stops
    write_rate: float = 0.4  # mean writes per virtual time unit
    keys: int = 8
    key_skew: float = 0.6
    sessions: int = 4
    read_interval: float = 25.0
    poll_interval: float = 20.0  # staleness monitor cadence
    anti_entropy_interval: float = 20.0
    network_latency: float = 2.0
    staleness_bound: Optional[float] = None  # default derived from profile
    # Wire batching for the group's eager propagation.  Soaks run with
    # batching ON by default so the chaos schedule exercises the
    # frame-granular loss/duplication path end to end; set
    # ``max_batch=None`` and ``flush_interval=0`` for the legacy
    # one-event-per-frame wire behaviour.
    max_batch: Optional[int] = 32
    flush_interval: float = 5.0

    def resolved_staleness_bound(self) -> float:
        """The bound used when none is given: the longest fault window
        plus repair time, with slack for chained/overlapping faults."""
        if self.staleness_bound is not None:
            return self.staleness_bound
        profile = get_profile(self.profile)
        return 3 * profile.max_window + 10 * self.anti_entropy_interval + 100.0


@dataclass
class _Recorder:
    """Mutable run state shared by the scheduled closures."""

    acked: int = 0
    rejected: int = 0
    reads: int = 0
    skipped_reads: int = 0
    ack_times: dict[tuple[str, int], float] = field(default_factory=dict)
    write_counts: dict[str, int] = field(default_factory=dict)
    expected: dict[tuple[str, str], dict[str, float]] = field(default_factory=dict)
    sessions: dict[str, list[float]] = field(default_factory=dict)
    staleness: list[float] = field(default_factory=list)
    vv_seen: dict[str, dict[str, int]] = field(default_factory=dict)


def run_soak(config: SoakConfig) -> dict[str, Any]:
    """Run one chaos soak and return the deterministic report dict."""
    metrics = MetricsRegistry()
    sim = Simulator(seed=config.seed, metrics=metrics)
    network = Network(sim, latency=config.network_latency)
    replica_ids = [f"r{index}" for index in range(1, config.replicas + 1)]
    group = ActiveActiveGroup(
        sim,
        network,
        replica_ids,
        anti_entropy_interval=config.anti_entropy_interval,
        gossip_fanout=2,
        batching=BatchPolicy(
            max_batch=config.max_batch, flush_interval=config.flush_interval
        ),
    )
    chaos = ChaosEngine(sim, network, group.replica_list(), profile=config.profile)
    recorder = _Recorder()
    recorder.sessions = {f"s{index}": [] for index in range(1, config.sessions + 1)}

    # ---- workload: seeded open-loop writes, round-robin over replicas -- #
    workload_rng = sim.fork_rng()
    key_names = [f"k{index}" for index in range(config.keys)]
    arrivals = open_loop_arrivals(
        workload_rng,
        rate=config.write_rate,
        duration=config.duration,
        keys=key_names,
        theta=config.key_skew,
    )

    def do_write(arrival) -> None:
        replica_id = replica_ids[arrival.index % len(replica_ids)]
        replica = group.replicas[replica_id]
        if replica.crashed:
            # A real client cannot reach a crashed node: no ack, no write.
            recorder.rejected += 1
            return
        amount = 1 + arrival.index % 3  # deterministic, non-uniform amounts
        group.write_delta(
            replica_id, "counter", arrival.key, Delta.add("value", amount)
        )
        recorder.acked += 1
        count = recorder.write_counts.get(replica_id, 0) + 1
        recorder.write_counts[replica_id] = count
        recorder.ack_times[(replica_id, count)] = sim.now
        sums = recorder.expected.setdefault(("counter", arrival.key), {})
        sums["value"] = sums.get("value", 0) + amount

    for arrival in arrivals:
        sim.schedule_at(arrival.at, lambda a=arrival: do_write(a), label="soak-write")

    # ---- sessions: pinned reads of the hottest key --------------------- #
    hot_key = key_names[0]

    def do_read(session_id: str, replica_id: str) -> None:
        replica = group.replicas[replica_id]
        if replica.crashed:
            recorder.skipped_reads += 1
            return
        state = replica.store.get("counter", hot_key)
        value = state.fields.get("value", 0) if state is not None else 0
        recorder.sessions[session_id].append(value)
        recorder.reads += 1

    read_horizon = config.duration + config.quiesce_grace
    for index, session_id in enumerate(sorted(recorder.sessions)):
        replica_id = replica_ids[index % len(replica_ids)]
        tick = config.read_interval * (1 + index % 2)  # desynchronised cadences
        at = tick
        while at < read_horizon:
            sim.schedule_at(
                at,
                lambda s=session_id, r=replica_id: do_read(s, r),
                label="soak-read",
            )
            at += tick

    # ---- staleness monitor: watch version vectors advance -------------- #
    def poll_staleness() -> None:
        now = sim.now
        for replica in group.replica_list():
            seen = recorder.vv_seen.setdefault(replica.node_id, {})
            vector = replica.store.version_vector.to_dict()
            for origin, covered in vector.items():
                last = seen.get(origin, 0)
                for seq in range(last + 1, covered + 1):
                    acked_at = recorder.ack_times.get((origin, seq))
                    if acked_at is not None:
                        recorder.staleness.append(now - acked_at)
                seen[origin] = max(last, covered)

    at = config.poll_interval
    while at <= read_horizon:
        sim.schedule_at(at, poll_staleness, label="soak-poll")
        at += config.poll_interval

    # ---- chaos, then quiesce ------------------------------------------- #
    chaos.inject(config.duration)
    sim.schedule_at(config.duration, chaos.quiesce, label="soak-quiesce")
    sim.run(until=read_horizon)

    # Give anti-entropy extra rounds if the grace period was not enough.
    repair_rounds = 0
    while not group.is_converged() and repair_rounds < 40:
        sim.run(until=sim.now + 5 * config.anti_entropy_interval)
        repair_rounds += 1
    poll_staleness()  # final visibility sweep after repair

    # ---- invariants ----------------------------------------------------- #
    replicas = group.replica_list()
    uncovered = sum(
        1
        for (origin, seq) in recorder.ack_times
        if any(
            recorder.vv_seen.get(replica.node_id, {}).get(origin, 0) < seq
            for replica in replicas
        )
    )
    report = InvariantReport(
        results=[
            check_convergence(replicas),
            check_no_lost_acked_writes(replicas, recorder.expected),
            check_monotonic_reads(recorder.sessions),
            check_bounded_staleness(
                recorder.staleness,
                bound=config.resolved_staleness_bound(),
                uncovered=uncovered,
            ),
        ]
    )

    profile = get_profile(config.profile)
    stats = network.stats
    return {
        "config": {
            "duration": config.duration,
            "flush_interval": config.flush_interval,
            "max_batch": config.max_batch,
            "profile": profile.name,
            "quiesce_grace": config.quiesce_grace,
            "replicas": config.replicas,
            "seed": config.seed,
            "write_rate": config.write_rate,
        },
        "converged_at": sim.now,
        "faults": chaos.schedule_summary(),
        "fault_kinds": chaos.fault_kinds,
        "invariants": report.to_dict(),
        "network": {
            "delivered": stats.delivered,
            "dropped_crashed": stats.dropped_crashed,
            "dropped_loss": stats.dropped_loss,
            "dropped_partition": stats.dropped_partition,
            "duplicated": stats.duplicated,
            "frame_payloads": stats.frame_payloads,
            "frames": stats.frames,
            "sent": stats.sent,
        },
        "ok": report.ok and len(chaos.fault_kinds) >= 4,
        "repair_rounds": repair_rounds,
        "workload": {
            "reads": recorder.reads,
            "reads_skipped": recorder.skipped_reads,
            "writes_acked": recorder.acked,
            "writes_rejected": recorder.rejected,
        },
    }


def report_json(report: dict[str, Any]) -> str:
    """Canonical JSON rendering (sorted keys, fixed separators) — the
    byte-determinism surface the tests compare."""
    return json.dumps(report, sort_keys=True, indent=2)


# ---------------------------------------------------------------------- #
# Geo soak: whole-site failover over partial replication
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class GeoSoakConfig:
    """Parameters of one geo chaos soak run.

    On top of the randomized site-level fault schedule (the
    :class:`~repro.chaos.engine.ChaosEngine` in topology mode draws
    crashes and partitions over *sites*), the geo soak injects one
    **scripted whole-site outage**: the site hosting the most shards is
    crashed for the ``[outage_start, outage_end]`` fraction of the run,
    deterministically — the headline failover scenario the availability
    probes measure.
    """

    seed: int = 0
    profile: str | ChaosProfile = "moderate"
    sites: int = 3
    replicas: int = 2
    shards: int = 6
    duration: float = 2000.0
    quiesce_grace: float = 600.0
    write_rate: float = 0.4
    keys: int = 12
    key_skew: float = 0.6
    sessions: int = 4
    read_interval: float = 25.0
    poll_interval: float = 20.0
    ship_interval: float = 10.0
    anti_entropy_interval: float = 20.0
    network_latency: float = 2.0
    wan_latency: float = 30.0
    wan_loss: float = 0.01
    staleness_bound: Optional[float] = None
    max_batch: Optional[int] = 32
    outage_start: float = 0.35  # fraction of duration
    outage_end: float = 0.55

    def site_names(self) -> list[str]:
        return [f"dc{index}" for index in range(1, self.sites + 1)]

    def resolved_staleness_bound(self) -> float:
        """Like :meth:`SoakConfig.resolved_staleness_bound` with extra
        room for the scripted outage window and the WAN latency."""
        if self.staleness_bound is not None:
            return self.staleness_bound
        profile = get_profile(self.profile)
        return (
            3 * profile.max_window
            + (self.outage_end - self.outage_start) * self.duration
            + 10 * self.anti_entropy_interval
            + 10 * self.wan_latency
            + 100.0
        )


def run_geo_soak(config: GeoSoakConfig) -> dict[str, Any]:
    """Run one geo chaos soak and return the deterministic report dict.

    The soak drives a seeded open-loop write workload against a
    partially replicated :class:`~repro.replication.geo.GeoReplicaGroup`
    while the chaos engine injects site-level faults *and* a scripted
    whole-site outage fails over the busiest datacenter.  The invariant
    sweep is placement-aware: convergence and lost-write checks run per
    shard group (a site never holds shards it was not placed), and the
    availability probes report the fraction of typed reads served from
    every site during the outage window.
    """
    from repro.core.consistency import ConsistencyLevel
    from repro.core.readpath import ConsistencyUnavailable, ReadRequest
    from repro.errors import ReplicationError
    from repro.partition.placement import PlacementPolicy
    from repro.replication.geo import GeoReplicaGroup
    from repro.sim.topology import SiteTopology, WanLink

    metrics = MetricsRegistry()
    sim = Simulator(seed=config.seed, metrics=metrics)
    network = Network(sim, latency=config.network_latency)
    site_names = config.site_names()
    topology = SiteTopology(
        site_names,
        default_link=WanLink(
            latency=config.wan_latency, loss_probability=config.wan_loss
        ),
    )
    network.attach_topology(topology)
    placement = PlacementPolicy(
        site_names, replicas=config.replicas, shards=config.shards
    )
    group = GeoReplicaGroup(
        sim,
        network,
        topology,
        placement,
        ship_interval=config.ship_interval,
        anti_entropy_interval=config.anti_entropy_interval,
        batching=BatchPolicy(max_batch=config.max_batch),
    )
    chaos = ChaosEngine(
        sim,
        network,
        list(group.gateways.values()),
        profile=config.profile,
        topology=topology,
    )
    recorder = _Recorder()
    recorder.sessions = {f"s{index}": [] for index in range(1, config.sessions + 1)}

    # ---- scripted whole-site outage: fail over the busiest site -------- #
    spread = placement.spread()
    busiest = min(
        site_names, key=lambda site: (-spread[site], site)
    )  # most shards, name as tie-break — deterministic, no RNG
    outage_at = config.outage_start * config.duration
    outage_until = config.outage_end * config.duration
    failed_gateway = group.gateways[busiest]
    sim.schedule_at(outage_at, failed_gateway.crash, label="geo-outage")
    sim.schedule_at(outage_until, failed_gateway.recover, label="geo-outage-end")

    # ---- workload: open-loop writes, coordinator-routed ---------------- #
    workload_rng = sim.fork_rng()
    key_names = [f"k{index}" for index in range(config.keys)]
    arrivals = open_loop_arrivals(
        workload_rng,
        rate=config.write_rate,
        duration=config.duration,
        keys=key_names,
        theta=config.key_skew,
    )

    def do_write(arrival) -> None:
        amount = 1 + arrival.index % 3
        try:
            replica = group.coordinator("counter", arrival.key)
        except ReplicationError:
            # Every hosting site is down: no ack, no write.
            recorder.rejected += 1
            return
        group.write_delta("counter", arrival.key, Delta.add("value", amount))
        recorder.acked += 1
        count = recorder.write_counts.get(replica.node_id, 0) + 1
        recorder.write_counts[replica.node_id] = count
        recorder.ack_times[(replica.node_id, count)] = sim.now
        sums = recorder.expected.setdefault(("counter", arrival.key), {})
        sums["value"] = sums.get("value", 0) + amount

    for arrival in arrivals:
        sim.schedule_at(arrival.at, lambda a=arrival: do_write(a), label="soak-write")

    # ---- sessions: pinned reads of the hottest key's hosting replicas -- #
    hot_key = key_names[0]
    hot_shard = placement.shard_of("counter", hot_key)
    hot_sites = placement.sites_for_shard(hot_shard)

    def do_read(session_id: str, replica) -> None:
        if group.gateways[replica.site].crashed:
            recorder.skipped_reads += 1
            return
        state = replica.store.get("counter", hot_key)
        value = state.fields.get("value", 0) if state is not None else 0
        recorder.sessions[session_id].append(value)
        recorder.reads += 1

    read_horizon = config.duration + config.quiesce_grace
    for index, session_id in enumerate(sorted(recorder.sessions)):
        site = hot_sites[index % len(hot_sites)]
        pinned = group.replicas[f"{site}/s{hot_shard}"]
        tick = config.read_interval * (1 + index % 2)
        at = tick
        while at < read_horizon:
            sim.schedule_at(
                at,
                lambda s=session_id, r=pinned: do_read(s, r),
                label="soak-read",
            )
            at += tick

    # ---- availability probes: typed reads from every site -------------- #
    availability = {
        "overall_attempted": 0,
        "overall_served": 0,
        "window_attempted": 0,
        "window_served": 0,
    }

    def probe_reads() -> None:
        in_window = outage_at <= sim.now < outage_until
        for site in site_names:
            availability["overall_attempted"] += 1
            if in_window:
                availability["window_attempted"] += 1
            try:
                group.read(
                    "counter",
                    hot_key,
                    request=ReadRequest(level=ConsistencyLevel.EVENTUAL),
                    site=site,
                )
            except ConsistencyUnavailable:
                continue
            availability["overall_served"] += 1
            if in_window:
                availability["window_served"] += 1

    # ---- staleness monitor: watch group version vectors advance -------- #
    def poll_staleness() -> None:
        now = sim.now
        for replica in group.replica_list():
            seen = recorder.vv_seen.setdefault(replica.node_id, {})
            vector = replica.store.version_vector.to_dict()
            for origin, covered in vector.items():
                last = seen.get(origin, 0)
                for seq in range(last + 1, covered + 1):
                    acked_at = recorder.ack_times.get((origin, seq))
                    if acked_at is not None:
                        recorder.staleness.append(now - acked_at)
                seen[origin] = max(last, covered)

    at = config.poll_interval
    while at <= read_horizon:
        sim.schedule_at(at, poll_staleness, label="soak-poll")
        if at < config.duration:
            sim.schedule_at(at, probe_reads, label="soak-probe")
        at += config.poll_interval

    # ---- chaos, then quiesce ------------------------------------------- #
    chaos.inject(config.duration)
    sim.schedule_at(config.duration, chaos.quiesce, label="soak-quiesce")
    sim.run(until=read_horizon)

    repair_rounds = 0
    while not group.is_converged() and repair_rounds < 40:
        sim.run(until=sim.now + 5 * config.anti_entropy_interval)
        repair_rounds += 1
    poll_staleness()

    # ---- invariants (placement-aware) ----------------------------------- #
    divergent_shards = [
        str(shard)
        for shard, members in sorted(group.groups.items())
        if not check_convergence(members).passed
    ]
    convergence_result = InvariantResult(
        name="convergence",
        passed=not divergent_shards,
        checked=len(group.replica_list()),
        detail=""
        if not divergent_shards
        else f"divergent shards: {','.join(divergent_shards)}",
    )
    lost_mismatches: list[str] = []
    lost_checked = 0
    for ref, field_sums in recorder.expected.items():
        shard = placement.shard_of(*ref)
        for replica in group.groups[shard]:
            lost_checked += 1
            state = replica.observable_state().get(ref)
            if state is None:
                lost_mismatches.append(f"{replica.node_id}:{ref[1]}:missing")
                continue
            for field_name, total in field_sums.items():
                actual = state.get(field_name, 0)
                if actual != total:
                    lost_mismatches.append(
                        f"{replica.node_id}:{ref[1]}.{field_name}="
                        f"{actual}!={total}"
                    )
    lost_result = InvariantResult(
        name="no_lost_acked_writes",
        passed=not lost_mismatches,
        checked=lost_checked,
        detail="; ".join(sorted(lost_mismatches)[:5]),
    )
    uncovered = sum(
        1
        for (origin, seq) in recorder.ack_times
        if any(
            recorder.vv_seen.get(member.node_id, {}).get(origin, 0) < seq
            for member in group.groups[int(origin.split("/s", 1)[1])]
        )
    )
    report = InvariantReport(
        results=[
            convergence_result,
            lost_result,
            check_monotonic_reads(recorder.sessions),
            check_bounded_staleness(
                recorder.staleness,
                bound=config.resolved_staleness_bound(),
                uncovered=uncovered,
            ),
        ]
    )

    profile = get_profile(config.profile)
    stats = network.stats
    window_availability = (
        availability["window_served"] / availability["window_attempted"]
        if availability["window_attempted"]
        else 1.0
    )
    overall_availability = (
        availability["overall_served"] / availability["overall_attempted"]
        if availability["overall_attempted"]
        else 1.0
    )
    return {
        "availability": {
            "overall": overall_availability,
            "window": window_availability,
            **availability,
        },
        "config": {
            "duration": config.duration,
            "max_batch": config.max_batch,
            "profile": profile.name,
            "quiesce_grace": config.quiesce_grace,
            "replicas": config.replicas,
            "seed": config.seed,
            "shards": config.shards,
            "sites": config.sites,
            "wan_latency": config.wan_latency,
            "wan_loss": config.wan_loss,
            "write_rate": config.write_rate,
        },
        "converged_at": sim.now,
        "faults": chaos.schedule_summary(),
        "fault_kinds": chaos.fault_kinds,
        "invariants": report.to_dict(),
        "network": {
            "delivered": stats.delivered,
            "dropped_crashed": stats.dropped_crashed,
            "dropped_loss": stats.dropped_loss,
            "dropped_partition": stats.dropped_partition,
            "duplicated": stats.duplicated,
            "frame_payloads": stats.frame_payloads,
            "frames": stats.frames,
            "links": stats.links_to_dict(),
            "sent": stats.sent,
        },
        "ok": report.ok and len(chaos.fault_kinds) >= 4,
        "outage": {
            "at": outage_at,
            "site": busiest,
            "until": outage_until,
        },
        "placement": {"spread": spread},
        "repair_rounds": repair_rounds,
        "workload": {
            "reads": recorder.reads,
            "reads_skipped": recorder.skipped_reads,
            "writes_acked": recorder.acked,
            "writes_rejected": recorder.rejected,
        },
    }
