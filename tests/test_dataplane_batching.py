"""Batched data plane: frames on the wire, chunking, coalescing.

PR 5 changed the replication wire unit from one message per event to one
*frame* per LSN-contiguous run.  These tests pin the frame semantics
(one latency draw and one loss/duplication coin per frame), the chunking
invariants (frames never span sequence gaps), the coalescing shipper,
the batched apply fast path and the builder/scheme knobs.
"""

from __future__ import annotations

import json

import pytest

from repro.lsdb.columnar import EventSlice
from repro.lsdb.events import EventKind, LogEvent
from repro.lsdb.log import AppendOnlyLog
from repro.merge.deltas import Delta
from repro.replication.batching import BatchPolicy, FrameShipper
from repro.replication.active_active import ActiveActiveGroup
from repro.replication.master_slave import MasterSlaveGroup
from repro.replication.replica import ReplicaNode
from repro.sim.network import Network, Node
from repro.sim.scheduler import Simulator


def make_events(count: int, origin: str = "src", start_lsn: int = 1) -> list[LogEvent]:
    return [
        LogEvent(
            lsn=start_lsn + index,
            timestamp=float(index),
            entity_type="acct",
            entity_key=f"a{index}",
            kind=EventKind.INSERT,
            payload={"bal": index},
            origin=origin,
            origin_seq=index + 1,
        )
        for index in range(count)
    ]


def as_slice(events: list[LogEvent]) -> EventSlice:
    """The events as arena rows (each re-stamped with its own LSN) —
    the only form the data plane chunks and ships."""
    log = AppendOnlyLog()
    for event in events:
        row = log.append_row(
            event.timestamp, event.entity_type, event.entity_key, event.kind,
            event.payload, event.origin, event.origin_seq,
        )
        log.arena.lsns[row] = event.lsn
    return EventSlice(log.arena, range(len(log.arena)))


class Recorder(Node):
    """Sink node that records every delivered payload."""

    def __init__(self, node_id: str):
        super().__init__(node_id)
        self.messages: list = []

    def handle_message(self, source, message):
        self.messages.append((source, message))


class TestBatchPolicy:
    def test_default_is_one_event_per_frame(self):
        events = make_events(5)
        chunks = list(BatchPolicy().chunk_rows(as_slice(events)))
        assert [len(chunk) for chunk in chunks] == [1, 1, 1, 1, 1]

    def test_max_batch_splits_contiguous_runs(self):
        events = make_events(10)
        chunks = list(BatchPolicy(max_batch=4).chunk_rows(as_slice(events)))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]
        assert [event.lsn for event in chunks[0]] == [1, 2, 3, 4]

    def test_frames_never_span_lsn_gaps(self):
        events = make_events(3) + make_events(3, start_lsn=10)
        chunks = list(BatchPolicy(max_batch=100).chunk_rows(as_slice(events)))
        # origin_seq restarts make the second run non-successive too.
        assert len(chunks) >= 2
        for chunk in chunks:
            lsns = [event.lsn for event in chunk]
            assert lsns == list(range(lsns[0], lsns[0] + len(lsns)))

    def test_unappended_events_chunk_by_origin_seq(self):
        # lsn=0 (not yet appended locally) falls back to origin_seq
        # contiguity — anti-entropy ships such runs.
        events = [
            LogEvent(lsn=0, timestamp=0.0, entity_type="t", entity_key="k",
                     kind=EventKind.INSERT, payload={}, origin="o",
                     origin_seq=seq)
            for seq in (1, 2, 3, 7, 8)
        ]
        chunks = list(BatchPolicy(max_batch=100).chunk_rows(as_slice(events)))
        assert [len(chunk) for chunk in chunks] == [3, 2]
        # A sequence that continues under another origin is not a
        # successor: the origin switch cuts the frame.
        switched = [
            LogEvent(lsn=0, timestamp=0.0, entity_type="t", entity_key="k",
                     kind=EventKind.INSERT, payload={}, origin=origin,
                     origin_seq=seq)
            for origin, seq in (("o", 1), ("o", 2), ("p", 3), ("p", 4))
        ]
        chunks = list(BatchPolicy(max_batch=100).chunk_rows(as_slice(switched)))
        assert [len(chunk) for chunk in chunks] == [2, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(flush_interval=-1.0)
        assert BatchPolicy(flush_interval=2.0).coalesces
        assert not BatchPolicy(max_batch=8).coalesces


class TestFrameWire:
    def test_send_batch_is_one_wire_message(self):
        sim = Simulator(seed=1)
        net = Network(sim, latency=2.0)
        sender = net.register(Recorder("a"))
        receiver = net.register(Recorder("b"))
        assert net.send_batch("a", "b", ["m1", "m2", "m3"], size=3)
        sim.run()
        # One frame on the wire, three payloads delivered in order.
        assert net.stats.sent == 1
        assert net.stats.frames == 1
        assert net.stats.frame_payloads == 3
        assert [payload for _, payload in receiver.messages] == ["m1", "m2", "m3"]
        assert sender.messages == []

    def test_loss_hits_the_whole_frame(self):
        sim = Simulator(seed=2)
        net = Network(sim, latency=1.0, loss_probability=1.0)
        net.register(Recorder("a"))
        receiver = net.register(Recorder("b"))
        assert not net.send_batch("a", "b", ["m1", "m2"], size=2)
        sim.run()
        assert receiver.messages == []
        # One loss coin for the frame, not one per payload.
        assert net.stats.dropped_loss == 1

    def test_duplication_replays_the_whole_frame(self):
        sim = Simulator(seed=3)
        net = Network(sim, latency=1.0, duplication_probability=1.0)
        net.register(Recorder("a"))
        receiver = net.register(Recorder("b"))
        net.send_batch("a", "b", ["m1", "m2"], size=2)
        sim.run()
        assert net.stats.duplicated == 1
        assert [payload for _, payload in receiver.messages] == [
            "m1", "m2", "m1", "m2",
        ]


class TestFrameShipper:
    def test_flush_at_max_batch(self):
        sim = Simulator(seed=6)
        net = Network(sim, latency=1.0)
        policy = BatchPolicy(max_batch=3, flush_interval=50.0)
        source = net.register(ReplicaNode("src", sim, batching=policy))
        sink = net.register(ReplicaNode("dst", sim))
        shipper = source.shipper
        assert isinstance(shipper, FrameShipper)
        for i in range(3):
            source.store.insert("acct", f"a{i}", {"bal": i})
        shipper.offer("dst", source.store.events_since(0))
        assert shipper.pending("dst") == 0  # size trigger flushed eagerly
        sim.run(until=5.0)
        assert sink.events_received == 3
        assert net.stats.frames == 1

    def test_timer_flushes_partial_buffer(self):
        sim = Simulator(seed=7)
        net = Network(sim, latency=1.0)
        source = net.register(
            ReplicaNode(
                "src", sim, batching=BatchPolicy(max_batch=10, flush_interval=4.0)
            )
        )
        sink = net.register(ReplicaNode("dst", sim))
        shipper = source.shipper
        source.store.insert("acct", "a", {"bal": 1})
        shipper.offer("dst", source.store.events_since(0))
        assert shipper.pending("dst") == 1
        sim.run(until=3.0)
        assert sink.events_received == 0  # still buffered
        sim.run(until=10.0)
        assert sink.events_received == 1
        assert shipper.pending() == 0


class TestBatchedReplication:
    def _shipped_state(self, max_batch):
        sim = Simulator(seed=8)
        net = Network(sim, latency=1.0)
        policy = BatchPolicy(max_batch=max_batch)
        primary = net.register(ReplicaNode("p", sim, batching=policy))
        backup = net.register(ReplicaNode("b", sim, batching=policy))
        primary.store.insert("acct", "a", {"bal": 0})
        for index in range(40):
            primary.store.apply_delta("acct", "a", Delta.add("bal", 1))
            primary.store.insert("acct", f"k{index}", {"bal": index})
        primary.ship_events("b", primary.store.events_since(0))
        sim.run()
        return backup, net.stats

    def test_batched_apply_equals_per_event_apply(self):
        unbatched, _ = self._shipped_state(None)
        batched, _ = self._shipped_state(16)
        assert batched.observable_state() == unbatched.observable_state()
        assert (
            batched.store.version_vector.to_dict()
            == unbatched.store.version_vector.to_dict()
        )
        assert batched.events_received == unbatched.events_received

    def test_equal_volume_far_fewer_wire_messages(self):
        _, unbatched_stats = self._shipped_state(None)
        _, batched_stats = self._shipped_state(16)
        assert unbatched_stats.sent == 81
        assert batched_stats.sent <= 81 / 10
        assert batched_stats.frame_payloads == unbatched_stats.frame_payloads

    def test_lossy_batched_replication_repairs_and_converges(self):
        sim = Simulator(seed=9)
        net = Network(sim, latency=2.0, loss_probability=0.2)
        group = ActiveActiveGroup(
            sim, net, ["r1", "r2", "r3"],
            anti_entropy_interval=10.0,
            batching=BatchPolicy(max_batch=8, flush_interval=3.0),
        )
        for index in range(60):
            sim.schedule_at(
                float(index),
                lambda i=index: group.write_delta(
                    f"r{1 + i % 3}", "acct", f"k{i % 5}", Delta.add("bal", 1)
                ),
                label="write",
            )
        sim.run(until=600.0)
        assert group.is_converged()
        total = sum(
            group.replicas["r1"].store.get("acct", f"k{i}").fields["bal"]
            for i in range(5)
        )
        assert total == 60

    def test_determinism_with_batching_and_loss(self):
        def signature():
            sim = Simulator(seed=10)
            net = Network(
                sim, latency=2.0, loss_probability=0.1,
                duplication_probability=0.05,
            )
            pair = MasterSlaveGroup(
                sim, net, ship_interval=5.0,
                batching=BatchPolicy(max_batch=8, flush_interval=2.0),
            )
            for index in range(50):
                sim.schedule_at(
                    float(index),
                    lambda i=index: pair.write_delta(
                        "acct", f"k{i % 4}", Delta.add("bal", 1)
                    ),
                    label="write",
                )
            sim.run(until=200.0)
            return json.dumps(
                {
                    "now": sim.now,
                    "sent": net.stats.sent,
                    "frames": net.stats.frames,
                    "loss": net.stats.dropped_loss,
                    "dup": net.stats.duplicated,
                    "vv": pair.slaves["slave"].store.version_vector.to_dict(),
                },
                sort_keys=True,
            )

        assert signature() == signature()


class TestSchemeKnobs:
    def test_ship_interval_alone_ships_unbatched(self):
        # A cadence without a frame policy gets the default one: one
        # event per frame.
        sim = Simulator(seed=11)
        net = Network(sim, latency=1.0)
        group = MasterSlaveGroup(sim, net, "m", ["s1"], ship_interval=3.0)
        assert group.batching == BatchPolicy()
        assert group.master.batching == BatchPolicy()

    def test_builder_ship_interval_alone_ships_unbatched(self):
        # The builder without with_batching hands the scheme no policy,
        # and the scheme's own default ships one event per frame.
        from repro import Cluster

        cluster = (
            Cluster.build(seed=12)
            .with_replicas(2, ship_interval=3.0)
            .create()
        )
        assert cluster.batching is None
        assert cluster.replication.batching == BatchPolicy()
        for i in range(3):
            cluster.replication.write_insert("order", f"o{i}", {"total": i})
        cluster.sim.run(until=10.0)
        slave = cluster.replication.slaves["slave-1"]
        for i in range(3):
            assert slave.store.get("order", f"o{i}") is not None

    def test_batching_kwarg_does_not_warn(self):
        import warnings

        sim = Simulator(seed=13)
        net = Network(sim, latency=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            pair = MasterSlaveGroup(
                sim, net, ship_interval=7.0, batching=BatchPolicy(max_batch=32)
            )
        assert pair.batching.max_batch == 32

    def test_cluster_builder_with_batching(self):
        from repro import Cluster

        cluster = (
            Cluster.build(seed=14)
            .with_replicas(2, ship_interval=5.0)
            .with_batching(max_batch=16)
            .with_warehouse(interval=10.0)
            .create()
        )
        assert cluster.batching.max_batch == 16
        assert cluster.replication.batching.max_batch == 16
        assert cluster.replication.master.batching.max_batch == 16
        assert cluster.warehouse.max_batch == 16
        cluster.replication.write_insert("order", "o1", {"total": 1})
        cluster.sim.run(until=30.0)
        assert cluster.replication.slaves["slave-1"].store.get("order", "o1") is not None

    def test_explicit_scheme_batching_wins_over_builder_default(self):
        from repro import Cluster

        cluster = (
            Cluster.build(seed=15)
            .with_replicas(
                2, batching=BatchPolicy(max_batch=4)
            )
            .with_batching(max_batch=99)
            .create()
        )
        assert cluster.replication.batching.max_batch == 4
