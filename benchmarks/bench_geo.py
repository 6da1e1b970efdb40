"""Geo benchmark: what partial replication buys at WAN prices.

PR 8's tentpole puts named sites, per-link WAN profiles and a
shard-to-site placement policy behind the cluster builder.  This module
measures the three claims that justify the machinery:

* **WAN bytes, partial vs full** — the same seeded write workload runs
  against placements with 1, 2 and 3 replicas per shard on a 3-site
  topology; partial replication (replicas=2) must put at most 0.6x the
  WAN payloads of full replication (replicas=3) on the inter-site
  links, with the 1-replica run as the "1/3-hosted" floor.
* **cross-DC read latency** — typed bounded-staleness reads issued from
  every site: the placement-aware read path serves site-locally when
  the site hosts the shard, so the latency distribution splits into a
  zero-WAN local mode and a one-link remote mode instead of paying the
  WAN on every read.
* **site-failover availability** — a scripted whole-site outage (the
  busiest site, no random chaos) while probes read from every site;
  with replicas=2 every shard keeps a live copy, so availability
  through the outage must stay at 1.0.

``tests/test_claims.py`` validates the committed artefact
``BENCH_geo.json`` against ``MAX_WAN_RATIO`` and
``MIN_FAILOVER_AVAILABILITY``.

Usage::

    python benchmarks/bench_geo.py                  # full run
    python benchmarks/bench_geo.py --quick          # CI smoke
    python benchmarks/bench_geo.py --check-determinism
    python benchmarks/bench_geo.py --trajectory-out BENCH_geo.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.report import ExperimentReport  # noqa: E402
from repro.cluster import Cluster  # noqa: E402
from repro.core.consistency import ConsistencyLevel  # noqa: E402
from repro.core.readpath import ConsistencyUnavailable, ReadRequest  # noqa: E402

SITES = ("dc1", "dc2", "dc3")
SHARDS = 12
WAN_LATENCY = 30.0
WAN_LOSS = 0.0  # benches are loss-free; the chaos soak owns the lossy case
LAN_LATENCY = 2.0
SHIP_INTERVAL = 10.0
DURATION = 600.0
DRAIN = 300.0
KEYS = 48
#: ISSUE 8 acceptance bounds.
MAX_WAN_RATIO = 0.6
MIN_FAILOVER_AVAILABILITY = 1.0


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def build_cluster(replicas: int, seed: int = 0, site: str | None = None):
    """A 3-site geo cluster with ``replicas`` copies per shard."""
    builder = (
        Cluster.build(seed=seed)
        .with_tracing()
        .with_network(latency=LAN_LATENCY)
        .with_topology(SITES, wan_latency=WAN_LATENCY, wan_loss=WAN_LOSS)
        .with_placement(
            replicas=replicas, shards=SHARDS, ship_interval=SHIP_INTERVAL
        )
    )
    if site is not None:
        builder = builder.with_front_door(site=site)
    return builder.create()


def run_workload(
    replicas: int, seed: int = 0, duration: float = DURATION
) -> dict[str, Any]:
    """One seeded write workload; returns the WAN wire bill.

    Writes land on each key's coordinator in round-robin key order (the
    identical schedule for every placement width), the run drains until
    the ship loops and anti-entropy settle, and the per-link counters
    say what replication itself cost over the WAN.
    """
    cluster = build_cluster(replicas, seed=seed)
    sim, group = cluster.sim, cluster.replication
    keys = [f"k{index}" for index in range(KEYS)]
    writes = int(duration)  # one write per virtual time unit
    for index in range(writes):
        sim.schedule_at(
            float(index),
            lambda i=index: group.write_set_fields(
                "order", keys[i % len(keys)], {"n": i}
            ),
            label="geo-write",
        )
    sim.run(until=duration + DRAIN)
    rounds = 0
    while not group.is_converged() and rounds < 20:
        sim.run(until=sim.now + 5 * SHIP_INTERVAL)
        rounds += 1
    stats = cluster.network.stats
    return {
        "replicas": replicas,
        "writes": writes,
        "converged": group.is_converged(),
        "wan_frames": stats.wan_frames,
        "wan_payloads": stats.wan_payloads,
        "links": {
            link: row["payloads"] for link, row in stats.links_to_dict().items()
        },
        "spread": cluster.placement.spread(),
    }


def run_read_latency(seed: int = 0) -> dict[str, Any]:
    """Cross-DC bounded-staleness read latency on the replicas=2 cluster.

    After the workload converges, every site issues a typed
    BOUNDED_STALENESS read for every key; the cost charged per read is
    the WAN latency between the client's site and the site that served
    (zero when the placement let the read stay home).
    """
    cluster = build_cluster(2, seed=seed)
    sim, group = cluster.sim, cluster.replication
    keys = [f"k{index}" for index in range(KEYS)]
    for index, key in enumerate(keys):
        sim.schedule_at(
            float(index),
            lambda k=key, i=index: group.write_set_fields("order", k, {"n": i}),
            label="geo-write",
        )
    sim.run(until=float(KEYS) + DRAIN)
    latencies: list[float] = []
    local = 0
    request = ReadRequest(
        level=ConsistencyLevel.BOUNDED_STALENESS, max_staleness=10 * SHIP_INTERVAL
    )
    for site in SITES:
        for key in keys:
            result = group.read("order", key, request=request, site=site)
            cost = cluster.topology.latency_between(site, result.site)
            latencies.append(cost)
            if cost == 0.0:
                local += 1
    total = len(latencies)
    return {
        "reads": total,
        "site_local_fraction": round(local / total, 4),
        "latency_p50": percentile(latencies, 0.50),
        "latency_p95": percentile(latencies, 0.95),
        "latency_mean": round(sum(latencies) / total, 3),
        "latency_max": max(latencies),
    }


def run_failover(
    seed: int = 0, duration: float = DURATION
) -> dict[str, Any]:
    """Scripted whole-site outage: availability of typed reads from
    every site while the busiest datacenter is down (no random chaos —
    this is the controlled single-failure scenario the placement's
    ``replicas=2`` promise is about)."""
    cluster = build_cluster(2, seed=seed)
    sim, group = cluster.sim, cluster.replication
    placement = cluster.placement
    keys = [f"k{index}" for index in range(KEYS)]
    for index in range(int(duration)):
        sim.schedule_at(
            float(index),
            lambda i=index: group.write_set_fields(
                "order", keys[i % len(keys)], {"n": i}
            ),
            label="geo-write",
        )
    spread = placement.spread()
    busiest = min(SITES, key=lambda site: (-spread[site], site))
    outage_at, outage_until = 0.3 * duration, 0.7 * duration
    gateway = group.gateways[busiest]
    sim.schedule_at(outage_at, gateway.crash, label="geo-outage")
    sim.schedule_at(outage_until, gateway.recover, label="geo-outage-end")

    counts = {"attempted": 0, "served": 0, "window_attempted": 0, "window_served": 0}

    def probe() -> None:
        in_window = outage_at <= sim.now < outage_until
        for site in SITES:
            for key in keys[:6]:
                counts["attempted"] += 1
                if in_window:
                    counts["window_attempted"] += 1
                try:
                    group.read(
                        "order",
                        key,
                        request=ReadRequest.eventual(),
                        site=site,
                    )
                except ConsistencyUnavailable:
                    continue
                counts["served"] += 1
                if in_window:
                    counts["window_served"] += 1

    at = 10.0
    while at < duration:
        sim.schedule_at(at, probe, label="geo-probe")
        at += 10.0
    sim.run(until=duration + DRAIN)
    rounds = 0
    while not group.is_converged() and rounds < 20:
        sim.run(until=sim.now + 5 * SHIP_INTERVAL)
        rounds += 1
    availability = (
        counts["window_served"] / counts["window_attempted"]
        if counts["window_attempted"]
        else 1.0
    )
    return {
        "outage_site": busiest,
        "outage_at": outage_at,
        "outage_until": outage_until,
        "failover_availability": round(availability, 4),
        "overall_availability": round(counts["served"] / counts["attempted"], 4),
        "converged_after_recovery": group.is_converged(),
        **counts,
    }


def collect(quick: bool = False) -> dict[str, Any]:
    """Run all three measurements."""
    duration = 150.0 if quick else DURATION
    wire = {
        f"replicas_{replicas}": run_workload(replicas, duration=duration)
        for replicas in (1, 2, 3)
    }
    partial = wire["replicas_2"]["wan_payloads"]
    full = wire["replicas_3"]["wan_payloads"]
    return {
        "benchmark": "bench_geo",
        "config": {
            "duration": duration,
            "keys": KEYS,
            "lan_latency": LAN_LATENCY,
            "quick": quick,
            "shards": SHARDS,
            "ship_interval": SHIP_INTERVAL,
            "sites": list(SITES),
            "wan_latency": WAN_LATENCY,
        },
        "wire": wire,
        "wan_ratio": round(partial / full, 4) if full else 0.0,
        "read_latency": run_read_latency(),
        "failover": run_failover(duration=duration),
    }


def trajectory(metrics: dict[str, Any]) -> dict[str, Any]:
    """The committed artefact (``BENCH_geo.json``) with the acceptance
    block ``tests/test_claims.py`` reads."""
    failover = metrics["failover"]
    return {
        "benchmark": "bench_geo",
        "description": (
            "Geo-distributed partial replication on a 3-site topology "
            "(30.0 one-way WAN latency per link). wan_ratio is WAN "
            "payloads shipped by the replicas=2 placement divided by "
            "full replication (replicas=3) under the identical seeded "
            "write workload; replicas=1 is the no-cross-site floor. "
            "read_latency charges each typed BOUNDED_STALENESS read the "
            "WAN latency between the reading site and the serving site "
            "(site-local reads are free). failover_availability is the "
            "fraction of typed reads served from all three sites while "
            "the busiest site is crashed outright."
        ),
        "config": metrics["config"],
        "wire": metrics["wire"],
        "read_latency": metrics["read_latency"],
        "failover": failover,
        "acceptance": {
            "wan_ratio": metrics["wan_ratio"],
            "max_wan_ratio": MAX_WAN_RATIO,
            "failover_availability": failover["failover_availability"],
            "min_failover_availability": MIN_FAILOVER_AVAILABILITY,
            "converged_after_recovery": failover["converged_after_recovery"],
            "pass": (
                metrics["wan_ratio"] <= MAX_WAN_RATIO
                and failover["failover_availability"]
                >= MIN_FAILOVER_AVAILABILITY
                and failover["converged_after_recovery"]
            ),
        },
    }


def check_determinism() -> bool:
    """Two same-seed failover runs must be byte-identical."""
    first = json.dumps(run_failover(seed=7, duration=150.0), sort_keys=True)
    second = json.dumps(run_failover(seed=7, duration=150.0), sort_keys=True)
    ok = first == second
    print(f"determinism: {'PASS' if ok else 'FAIL'}")
    if not ok:
        print(f"  run 1: {first}")
        print(f"  run 2: {second}")
    return ok


def sweep() -> ExperimentReport:
    """The ``run_all.py`` entry point."""
    metrics = collect(quick=True)
    report = ExperimentReport(
        experiment_id="GEO",
        title="Geo placement: partial replication at WAN prices",
        claim=(
            "placing 2 of 3 sites per shard ships about half the WAN "
            "payloads of full replication while a whole-site outage "
            "leaves every shard readable (2.7-2.10)"
        ),
        headers=["replicas", "wan_payloads", "wan_frames", "converged"],
        notes=(
            f"wan_ratio {metrics['wan_ratio']} (gate <= {MAX_WAN_RATIO}); "
            f"failover availability "
            f"{metrics['failover']['failover_availability']}; "
            f"site-local read fraction "
            f"{metrics['read_latency']['site_local_fraction']}"
        ),
    )
    for replicas in (1, 2, 3):
        row = metrics["wire"][f"replicas_{replicas}"]
        report.add_row(
            replicas, row["wan_payloads"], row["wan_frames"], row["converged"]
        )
    return report


def test_partial_replication_halves_wan_bill(benchmark):
    partial = benchmark(run_workload, 2, 0, 150.0)
    full = run_workload(3, duration=150.0)
    assert partial["converged"] and full["converged"]
    # 2-of-3 placement must ship well under full replication's WAN bill.
    assert partial["wan_payloads"] <= MAX_WAN_RATIO * full["wan_payloads"]
    failover = run_failover(duration=150.0)
    assert failover["failover_availability"] >= MIN_FAILOVER_AVAILABILITY
    assert failover["converged_after_recovery"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small CI sizes")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run the failover scenario twice and compare")
    parser.add_argument("--json-out", type=str, default="", metavar="PATH",
                        help="write raw metrics as JSON to PATH")
    parser.add_argument("--trajectory-out", type=str, default="", metavar="PATH",
                        help="write the artefact (BENCH_geo.json) to PATH")
    parser.add_argument("--label", type=str, default="run",
                        help="label stored in the JSON meta block")
    args = parser.parse_args()

    if args.check_determinism and not check_determinism():
        raise SystemExit(1)

    metrics = collect(quick=args.quick)
    payload = {
        "meta": {
            "label": args.label,
            "quick": args.quick,
            "python": sys.version.split()[0],
        },
        "metrics": metrics,
    }
    if args.json_out:
        pathlib.Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.trajectory_out:
        pathlib.Path(args.trajectory_out).write_text(
            json.dumps(trajectory(metrics), indent=2) + "\n", encoding="utf-8"
        )
    for replicas in (1, 2, 3):
        row = metrics["wire"][f"replicas_{replicas}"]
        print(
            f"replicas={replicas}  wan_payloads {row['wan_payloads']:>7d}  "
            f"wan_frames {row['wan_frames']:>6d}  converged {row['converged']}"
        )
    print(f"wan_ratio (2-of-3 vs full): {metrics['wan_ratio']}")
    latency = metrics["read_latency"]
    print(
        f"bounded reads: site-local {latency['site_local_fraction']:.1%}  "
        f"latency p50 {latency['latency_p50']:g}  "
        f"p95 {latency['latency_p95']:g}  mean {latency['latency_mean']:g}"
    )
    failover = metrics["failover"]
    print(
        f"failover ({failover['outage_site']} down): availability "
        f"{failover['failover_availability']:.2%} in window, "
        f"{failover['overall_availability']:.2%} overall, "
        f"converged after recovery: {failover['converged_after_recovery']}"
    )


if __name__ == "__main__":
    main()
