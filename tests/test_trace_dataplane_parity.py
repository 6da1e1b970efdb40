"""Tracing does not change the data plane.

The instrument must not change what it measures: with ``.with_tracing()``
a master/slave run ships the same ``ColumnFrame`` messages, draws the
same loss coins, rejects the same duplicates (none, unless a frame was
dropped) and lands on the same replica states as the untraced run of
the same seed — tracing only adds spans.  (Before the single data
plane, a tracer switched shipping to a per-event ``LogEvent`` message
shape: 0 of 40 traced messages were frames.)
"""

from __future__ import annotations

import pytest

from repro import Cluster
from repro.lsdb.columnar import ColumnFrame
from repro.merge.deltas import Delta
from repro.replication.batching import BatchPolicy

WRITES = 37


def run(traced: bool, loss: float, batching: BatchPolicy):
    builder = (
        Cluster.build(seed=23)
        .with_network(latency=2.0, loss_probability=loss)
        .with_replicas(
            3, mode="master_slave", ship_interval=5.0, batching=batching
        )
    )
    if traced:
        builder = builder.with_tracing()
    cluster = builder.create()
    group = cluster.replication

    delivered: list[dict] = []
    for slave in group.slaves.values():
        def recording(source, message, handle=slave.handle_message):
            if message.get("type") == "events":
                delivered.append(message)
            handle(source, message)

        slave.handle_message = recording

    for index in range(WRITES):
        cluster.sim.schedule_at(
            float(index),
            lambda i=index: group.write_delta(
                "acct", f"k{i % 6}", Delta.add("bal", i + 1)
            ),
            label="write",
        )
    cluster.sim.run(until=300.0)
    return cluster, delivered


def data_plane(cluster, delivered):
    slaves = cluster.replication.slaves
    return {
        "frames": cluster.network.stats.frames,
        "frame_payloads": cluster.network.stats.frame_payloads,
        "dropped_loss": cluster.network.stats.dropped_loss,
        "delivered_sizes": [len(message["frame"]) for message in delivered],
        "duplicates": {
            name: slave.store.duplicates_rejected for name, slave in slaves.items()
        },
        "received": {name: slave.events_received for name, slave in slaves.items()},
        "vectors": {
            name: slave.store.version_vector.to_dict()
            for name, slave in slaves.items()
        },
        "states": {name: slave.observable_state() for name, slave in slaves.items()},
    }


@pytest.mark.parametrize("loss", [0.0, 0.1])
@pytest.mark.parametrize(
    "batching", [BatchPolicy(), BatchPolicy(max_batch=8)], ids=["one_row", "max8"]
)
def test_traced_run_ships_the_same_frames(loss, batching):
    plain_cluster, plain = run(False, loss, batching)
    traced_cluster, traced = run(True, loss, batching)

    for message in plain + traced:
        assert isinstance(message["frame"], ColumnFrame)
        assert "events" not in message
    if batching.max_batch is None:
        # The unbatched default is one-row frames, not a legacy shape.
        assert {len(message["frame"]) for message in traced} == {1}

    assert data_plane(traced_cluster, traced) == data_plane(plain_cluster, plain)
    master_state = plain_cluster.replication.master.observable_state()
    assert sum(fields["bal"] for fields in master_state.values()) == sum(
        range(1, WRITES + 1)
    )
    for state in data_plane(plain_cluster, plain)["states"].values():
        assert state == master_state  # the repair path converged under loss

    # Tracing was really on, and only added spans: every position of
    # every traced message carries a ship span, closed on delivery, with
    # the apply chained under it.
    assert all("ctx" not in message for message in plain)
    tracer = traced_cluster.tracer
    for message in traced:
        assert sorted(message["ctx"]) == list(range(len(message["frame"])))
        for ship_id in message["ctx"].values():
            ship = tracer.get(ship_id)
            assert ship.name == "replicate.ship"
            assert ship.attrs["status"] == "delivered"
    statuses = {
        span.attrs["status"] for span in tracer.spans if span.name == "store.apply"
    }
    assert "applied" in statuses
    assert statuses <= {"applied", "duplicate", "buffered", "applied_from_buffer"}
    # Every event ships once; only the repair of a dropped frame may
    # re-send rows the slave already holds.
    stats = traced_cluster.network.stats
    if stats.dropped == 0:
        assert statuses == {"applied"}
        assert stats.frame_payloads == WRITES * len(traced_cluster.replication.slaves)
    if loss:
        assert stats.dropped_loss > 0
