"""The four workloads: fixed cluster configuration and seeded schedules.

Everything a later issue may cite is a constant here — workload names,
the cluster configuration, population, rates — and is copied into every
result file by :func:`fixed_configuration`.  Inputs come from ``--seed``
alone: the same seed compiles the same op schedule and the same
read-level assignment, byte for byte.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from repro import Cluster
from repro.bench import scenarios
from repro.core.readpath import ReadRequest
from repro.sim.rng import SeededRNG

ENTITY_TYPE = "entity"
#: Key population: about ten times the read cache, so the cache can
#: hold a hot set but never the working set of a mild skew.
POPULATION = 10_000
#: Client ops per virtual time unit (the registered scenario rates x5).
OPS_PER_VT = 500.0
#: Virtual length of the open-loop arrival window at scale 1.0 ...
DURATION = 400.0
#: ... and of the quiet tail in which shipping and anti-entropy converge.
DRAIN = 100.0
STALENESS_BOUND = 20.0
LAN_LATENCY = 2.0
WAN_LATENCY = 30.0
SHIP_INTERVAL = 10.0
MAX_BATCH = 64
CACHE = {"capacity": 1024, "hot_capacity": 32, "coalesce_window": 2.0}
WAREHOUSE_INTERVAL = 100.0
GEO_SITES = ("us", "eu", "ap")
GEO_REPLICAS = 2
GEO_SHARDS = 16
GEO_HOME_SITE = "us"

STRONG = ReadRequest.strong()
BOUNDED = ReadRequest.bounded(STALENESS_BOUND)
EVENTUAL = ReadRequest.eventual()
_REQUESTS = {"strong": STRONG, "bounded": BOUNDED, "eventual": EVENTUAL}


@dataclass(frozen=True)
class Workload:
    """One named traffic mix over one cluster shape.

    Attributes:
        name: Final name; later issues cite it.
        why: One line on which layer it loads or bypasses.
        scenario: ``repro.bench.scenarios`` registry name (key skew).
        write_share: Fraction of client ops that are writes.
        read_mix: ``(level, share)`` pairs summing to 1.
        slaves: Slave count of the master/slave cluster (0 for geo).
        geo: 3-site 2-of-3 placement instead of master/slave.
    """

    name: str
    why: str
    scenario: str
    write_share: float
    read_mix: tuple[tuple[str, float], ...]
    slaves: int = 0
    geo: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ms_hot",
            why=(
                "zipf 0.99, 40/60, bounded reads: hot set fits the cache, so "
                "readcache and door/scheme read plumbing carry the reads"
            ),
            scenario="zipf_hot",
            write_share=0.4,
            read_mix=(("bounded", 1.0),),
            slaves=2,
        ),
        Workload(
            name="ms_mild",
            why=(
                "zipf 0.5, 40/60, strong/bounded/eventual reads: working set "
                "exceeds the cache, so store.get, fold and the warehouse rung "
                "carry the reads; control for ms_hot"
            ),
            scenario="zipf_mild",
            write_share=0.4,
            read_mix=(("strong", 0.2), ("bounded", 0.7), ("eventual", 0.1)),
            slaves=2,
        ),
        Workload(
            name="ms_ingest",
            why=(
                "90/10 with strong reads at the master, 3 slaves: transaction, "
                "store ingest, log, ship and 3x apply dominate; the cache is idle"
            ),
            scenario="zipf_mild",
            write_share=0.9,
            read_mix=(("strong", 1.0),),
            slaves=3,
        ),
        Workload(
            name="geo_2of3",
            why=(
                "3 sites, 2-of-3 placement, rotating hot set, no transactions: "
                "per-shard WAN shipping and anti-entropy; reads degrade when "
                "WAN lag exceeds the bound"
            ),
            scenario="diurnal",
            write_share=0.4,
            read_mix=(("bounded", 1.0),),
            geo=True,
        ),
    )
}


def fixed_configuration() -> dict[str, Any]:
    """The configuration every result file records."""
    return {
        "population": POPULATION,
        "ops_per_virtual_time": OPS_PER_VT,
        "virtual_duration": DURATION,
        "virtual_drain": DRAIN,
        "staleness_bound": STALENESS_BOUND,
        "lan_latency": LAN_LATENCY,
        "wan_latency": WAN_LATENCY,
        "ship_interval": SHIP_INTERVAL,
        "max_batch": MAX_BATCH,
        "read_cache": dict(CACHE),
        "warehouse_interval": WAREHOUSE_INTERVAL,
        "geo": {
            "sites": list(GEO_SITES),
            "replicas": GEO_REPLICAS,
            "shards": GEO_SHARDS,
            "door_site": GEO_HOME_SITE,
        },
        "workloads": {
            w.name: {
                "scenario": w.scenario,
                "write_share": w.write_share,
                "read_mix": dict(w.read_mix),
                "slaves": w.slaves,
                "geo": w.geo,
            }
            for w in WORKLOADS.values()
        },
    }


def build_cluster(workload: Workload, seed: int) -> Cluster:
    """The workload's cluster, through ``ClusterBuilder`` only."""
    builder = (
        Cluster.build(seed=seed)
        .with_network(latency=LAN_LATENCY)
        .with_batching(max_batch=MAX_BATCH)
        .with_read_cache(**CACHE)
    )
    if workload.geo:
        return (
            builder.with_topology(GEO_SITES, wan_latency=WAN_LATENCY)
            .with_placement(
                replicas=GEO_REPLICAS,
                shards=GEO_SHARDS,
                ship_interval=SHIP_INTERVAL,
            )
            .with_front_door(site=GEO_HOME_SITE)
            .create()
        )
    return (
        builder.with_replicas(
            1 + workload.slaves, mode="master_slave", ship_interval=SHIP_INTERVAL
        )
        .with_warehouse(interval=WAREHOUSE_INTERVAL)
        .with_transactions()
        .with_front_door()
        .create()
    )


@dataclass(frozen=True)
class Schedule:
    """A compiled op schedule as parallel lists (op ``i`` is a write
    when ``request[i] is None``)."""

    at: list[float]
    key: list[str]
    request: list[Optional[ReadRequest]]
    duration: float

    def __len__(self) -> int:
        return len(self.at)


def compile_schedule(workload: Workload, seed: int, scale: float) -> Schedule:
    """The workload's op schedule for ``seed`` at ``scale`` of the
    full virtual duration (population and rates never scale: a shorter
    run is a prefix-like sample of the same traffic, not a smaller
    system)."""
    duration = DURATION * scale
    base = scenarios.get(workload.scenario)
    spec = dataclasses.replace(
        base,
        entities=POPULATION,
        duration=duration,
        write_rate=OPS_PER_VT * workload.write_share,
        read_rate=OPS_PER_VT * (1.0 - workload.write_share),
        # A rotating hot set keeps four phases however short the run.
        rotation_period=(
            None if base.rotation_period is None else duration / 4.0
        ),
    )
    ops = spec.ops(seed=seed)
    # Read levels come from their own stream: changing a workload's read
    # mix never moves its arrival times or keys.
    level_rng = SeededRNG(seed * 7919 + 17)
    thresholds = []
    cumulative = 0.0
    for level, share in workload.read_mix:
        cumulative += share
        thresholds.append((cumulative, _REQUESTS[level]))
    last_request = thresholds[-1][1]
    requests: list[Optional[ReadRequest]] = []
    for op in ops:
        if op.kind == "write":
            requests.append(None)
            continue
        draw = level_rng.random()
        for threshold, request in thresholds:
            if draw < threshold:
                requests.append(request)
                break
        else:
            requests.append(last_request)
    return Schedule(
        at=[op.at for op in ops],
        key=[op.key for op in ops],
        request=requests,
        duration=duration,
    )
