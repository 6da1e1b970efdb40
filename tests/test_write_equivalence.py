"""Scheme writes land exactly what the store's typed writers land.

Every scheme write goes straight to ``LSDBStore.append_local`` and
builds no ``LogEvent``; the store's typed writers (``insert``,
``apply_delta``, ``set_fields``) are the ``LogEvent``-returning API edge
over the same ingest.  This pins that the two routes are one: twin
clusters on the same seed take the same hypothesis-generated writes —
through the scheme on one, through the typed writers on the other's
coordinator replicas — and after the simulator drains, every replica's
arena columns, states, version vector and ``events_received`` are
identical.

Active/active is built eager, so its reference also replays the
propagation the scheme used to do — offer ``events_since(lsn - 1)``
to every peer — against which the scheme's one-row tail is compared.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.merge.deltas import Delta

SEED = 17
KEYS = 5
SPACING = 1.5

ops = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delta", "set_fields")),
        st.integers(0, KEYS - 1),
        st.integers(-50, 50),
        st.sampled_from(("", "tx-a", "tx-b")),
        st.integers(0, 2),  # active/active: which replica takes it
    ),
    min_size=1,
    max_size=30,
)


def build(mode: str):
    builder = (
        Cluster.build(seed=SEED)
        .with_network(latency=2.0, loss_probability=0.05)
        .with_read_cache(capacity=32, hot_capacity=8, coalesce_window=2.0)
    )
    if mode == "geo":
        return (
            builder.with_batching(max_batch=64)
            .with_topology(("us", "eu", "ap"), wan_latency=30.0)
            .with_placement(replicas=2, shards=4, ship_interval=10.0)
            .create()
        )
    if mode == "active_active_coalesced":
        return (
            builder.with_batching(max_batch=64, flush_interval=3.0)
            .with_replicas(3, mode="active_active", eager=True)
            .create()
        )
    builder = builder.with_batching(max_batch=64)
    if mode == "active_active":
        return builder.with_replicas(3, mode="active_active", eager=True).create()
    # "async" is the one-slave group, the primary/backup pair.
    count = 2 if mode == "async" else 3
    return builder.with_replicas(
        count, mode="master_slave", ship_interval=10.0
    ).create()


def nodes_of(scheme):
    if hasattr(scheme, "replica_list"):
        return scheme.replica_list()
    return [scheme.master, *scheme.slaves.values()]


def value_of(kind: str, amount: int):
    return Delta.add("n", amount) if kind == "delta" else {"n": amount, "m": -amount}


def scheme_write(scheme, op) -> None:
    """One op through the scheme's own write API.  Schemes without
    ``write_set_fields`` take those ops as inserts."""
    kind, key, amount, tx_id, replica = op
    if not hasattr(scheme, f"write_{kind}"):
        kind = "insert"
    args = ("entity", f"k{key}", value_of(kind, amount))
    if hasattr(scheme, "eager"):
        args = (list(scheme.replicas)[replica], *args)
    getattr(scheme, f"write_{kind}")(*args, tx_id=tx_id)


def typed_write(scheme, op) -> None:
    """The same op through the store's typed writer on the replica the
    scheme would have chosen (and, eagerly, the old propagation)."""
    kind, key, amount, tx_id, replica = op
    if not hasattr(scheme, f"write_{kind}"):
        kind = "insert"
    entity = ("entity", f"k{key}")
    if hasattr(scheme, "placement"):
        # The shard's first preference site whose gateway is up, looked
        # up by name rather than through the scheme's own coordinator.
        shard = scheme.placement.shard_of(*entity)
        site = next(
            site
            for site in scheme.placement.sites_for_shard(shard)
            if not scheme.gateways[site].crashed
        )
        node = scheme.replicas[f"{site}/s{shard}"]
    elif hasattr(scheme, "eager"):
        node = list(scheme.replicas.values())[replica]
    else:
        node = getattr(scheme, "master", None) or scheme.primary
    writer = {"insert": "insert", "delta": "apply_delta", "set_fields": "set_fields"}
    event = getattr(node.store, writer[kind])(
        *entity, value_of(kind, amount), tx_id=tx_id
    )
    if getattr(scheme, "eager", False):
        tail = node.store.events_since(event.lsn - 1)
        for peer_id, peer in scheme.replicas.items():
            if peer is not node:
                node.offer_events(peer_id, tail)


def drive(mode: str, writes, write) -> list:
    cluster = build(mode)
    scheme = cluster.replication
    for index, op in enumerate(writes):
        cluster.sim.schedule_at(
            SPACING * index, lambda op=op: write(scheme, op), label="w"
        )
    cluster.sim.run(until=SPACING * len(writes) + 400.0)
    return nodes_of(scheme)


def fingerprint(node) -> dict:
    store = node.store
    arena = store.log.arena
    return {
        "node": node.node_id,
        "lsns": list(arena.lsns),
        "timestamps": list(arena.timestamps),
        "origins": [arena.origins.value(i) for i in arena.origin_ids],
        "origin_seqs": list(arena.origin_seqs),
        "refs": [arena.ref_tuples[i] for i in arena.ref_ids],
        "kinds": list(arena.kinds),
        "payloads": list(arena.payloads),
        "tx_ids": list(arena.tx_ids),
        "states": store.current_state(),
        "version_vector": store.version_vector.to_dict(),
        "events_received": node.events_received,
    }


@pytest.mark.parametrize(
    "mode",
    ["geo", "master_slave", "async", "active_active", "active_active_coalesced"],
)
@settings(max_examples=15, deadline=None)
@given(writes=ops)
def test_scheme_writes_equal_typed_writes(mode, writes):
    by_scheme = drive(mode, writes, scheme_write)
    by_store = drive(mode, writes, typed_write)
    assert [fingerprint(n) for n in by_scheme] == [fingerprint(n) for n in by_store]
    # The writes happened: every op is in exactly one origin's log.
    assert sum(
        n.store.count_from_origin(n.node_id, 0) for n in by_scheme
    ) == len(writes)
