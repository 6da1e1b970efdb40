"""Causal trace reconstruction: write journeys, partitions, export."""

from __future__ import annotations

import json
import pathlib

from repro import Cluster
from repro.obs.export import render_timeline, trace_payload, validate_trace
from repro.obs.trace import Tracer

SCHEMA_PATH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "trace_schema.json"


def _span_names(tree_node) -> list[str]:
    """Flatten a Tracer.tree() node into depth-first span names."""
    names = [tree_node["name"]]
    for child in tree_node["children"]:
        names.extend(_span_names(child))
    return names


class TestTracerPrimitives:
    def test_ambient_parenting(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.parent_id == ""

    def test_capture_resume_bridges_time(self):
        times = [0.0]
        tracer = Tracer(clock=lambda: times[0])
        with tracer.span("origin") as origin:
            captured = tracer.capture()
        times[0] = 50.0
        with tracer.resume(captured):
            later = tracer.start_span("later")
            tracer.end_span(later)
        assert later.parent_id == origin.span_id
        assert later.start == 50.0

    def test_resume_tolerates_unknown(self):
        tracer = Tracer()
        with tracer.resume(None):
            assert tracer.current is None
        with tracer.resume("s999"):
            assert tracer.current is None


class TestAsyncWriteJourney:
    """The acceptance scenario: one asynchronously replicated write
    reconstructs as a tree with correct virtual timestamps."""

    def _traced_cluster(self):
        cluster = (
            Cluster.build(seed=7)
            .with_network(latency=5.0)
            .with_replicas(2, mode="master_slave", ship_interval=10.0)
            .with_tracing()
            .create()
        )
        index = cluster.replication.slaves["slave-1"].store.register_index("order", "status")
        cluster.sim.schedule_at(30.0, index.refresh, label="index-refresh")
        cluster.replication.write_insert(
            "order", "o-1", {"total": 9, "status": "new"}
        )
        cluster.sim.run(until=40.0)
        return cluster

    def test_tree_shape_and_virtual_times(self):
        cluster = self._traced_cluster()
        tracer = cluster.tracer
        trace_ids = tracer.trace_ids()
        assert len(trace_ids) == 1
        (root,) = tracer.tree(trace_ids[0])

        # Root: the origin append, instantaneous at t=0 on the master.
        assert root["name"] == "store.append"
        assert root["node"] == "master"
        assert (root["start"], root["end"]) == (0.0, 0.0)

        # First child: the shipping hop, leaving at the first ship round
        # (t=10) and arriving one network latency later (t=15).
        ship = root["children"][0]
        assert ship["name"] == "replicate.ship"
        assert (ship["start"], ship["end"]) == (10.0, 15.0)
        assert ship["attrs"]["status"] == "delivered"

        # Its child: the remote apply, at arrival time on the backup.
        (apply_span,) = ship["children"]
        assert apply_span["name"] == "store.apply"
        assert apply_span["node"] == "slave-1"
        assert apply_span["start"] == 15.0
        assert apply_span["attrs"]["status"] == "applied"

        # The asynchronous index refresh chains onto the apply, at its
        # scheduled (later) time — the staleness window made visible.
        (refresh,) = apply_span["children"]
        assert refresh["name"] == "index.refresh"
        assert refresh["node"] == "slave-1"
        assert refresh["start"] == 30.0

        # Fault-free, the event crosses the wire exactly once: the
        # backup's same-round probe is answered past the send cursor,
        # so there is no second ship span and nothing to reject.
        assert _span_names(root) == [
            "store.append", "replicate.ship", "store.apply", "index.refresh",
        ]

    def test_read_sees_the_write(self):
        cluster = self._traced_cluster()
        assert cluster.read("order", "o-1").fields["total"] == 9


class TestPartitionAndHeal:
    def test_lost_batch_leaves_open_ship_spans_then_heals(self):
        cluster = (
            Cluster.build(seed=11)
            .with_network(latency=2.0)
            .with_replicas(2, mode="master_slave", ship_interval=10.0)
            .with_tracing()
            .create()
        )
        cluster.replication.write_insert("order", "o-1", {"total": 3})
        cluster.network.partition_into({"master"}, {"slave-1"})
        cluster.sim.run(until=25.0)  # ship rounds fire into the partition

        tracer = cluster.tracer
        open_ships = [
            span for span in tracer.spans
            if span.name == "replicate.ship" and span.end is None
        ]
        assert open_ships, "dropped batches must leave their ship spans open"
        assert cluster.replication.slaves["slave-1"].store.get("order", "o-1") is None
        assert "open" in render_timeline(tracer)

        cluster.network.heal()
        cluster.sim.run(until=60.0)

        # After the heal the anti-entropy probe re-ships, and a later
        # ship span closes with the apply chained under it.
        delivered = [
            span for span in tracer.spans
            if span.name == "replicate.ship"
            and span.attrs.get("status") == "delivered"
        ]
        assert delivered
        applies = [s for s in tracer.spans if s.name == "store.apply"]
        assert any(s.attrs.get("status") == "applied" for s in applies)
        assert cluster.replication.slaves["slave-1"].store.get("order", "o-1").fields == {
            "total": 3
        }
        # The originally lost hops remain open: history is not rewritten.
        assert all(span.end is None for span in open_ships)

    def test_partition_blocked_sends_counted(self):
        cluster = (
            Cluster.build(seed=11)
            .with_network(latency=2.0)
            .with_replicas(2, mode="master_slave", ship_interval=10.0)
            .with_tracing()
            .create()
        )
        cluster.replication.write_insert("order", "o-1", {"total": 3})
        cluster.network.partition_into({"master"}, {"slave-1"})
        cluster.sim.run(until=25.0)
        assert cluster.metrics.value("net.dropped", reason="partition") > 0


class TestExport:
    def test_payload_matches_checked_in_schema(self):
        cluster = (
            Cluster.build(seed=7)
            .with_network(latency=5.0)
            .with_replicas(2, mode="master_slave", ship_interval=10.0)
            .with_tracing()
            .create()
        )
        cluster.replication.write_insert("order", "o-1", {"total": 9})
        cluster.sim.run(until=40.0)
        schema = json.loads(SCHEMA_PATH.read_text())
        payload = cluster.trace_payload(test="schema")
        assert validate_trace(payload, schema) == []
        assert payload["trace_count"] == 1
        assert payload["meta"] == {"test": "schema"}

    def test_validator_reports_problems(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        bad = {"meta": {}, "trace_count": "not-a-number", "spans": [{}]}
        problems = validate_trace(bad, schema)
        assert any("trace_count" in p for p in problems)
        assert any("span_id" in p for p in problems)

    def test_untraced_cluster_refuses_observability_views(self):
        import pytest

        cluster = Cluster.build(seed=1).with_store().create()
        with pytest.raises(RuntimeError):
            cluster.timeline()
        with pytest.raises(RuntimeError):
            cluster.metrics_report()
        with pytest.raises(RuntimeError):
            cluster.trace_payload()


def test_trace_payload_meta_optional():
    tracer = Tracer()
    with tracer.span("only"):
        pass
    payload = trace_payload(tracer)
    assert payload["meta"] == {}
    assert payload["trace_count"] == 1
