"""Tests for the simulated network: latency, loss, partitions, crashes.

The fault classes run over both envelopes of the one route: a bare
``send`` and a one-payload ``send_batch`` frame (the ``...Frame``
subclasses at the bottom).  The receiver sees the same payload either
way, and every counter but the frame accounting agrees.
"""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.sim.network import Network, NetworkStats, Node, Partition
from repro.sim.scheduler import Simulator


class Recorder(Node):
    """Node that records every delivered message with its arrival time."""

    def __init__(self, node_id: str):
        super().__init__(node_id)
        self.received: list[tuple[float, str, object]] = []

    def handle_message(self, source, message):
        self.received.append((self.network.sim.now, source, message))


def make_pair(latency=1.0, loss=0.0, seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=latency, loss_probability=loss)
    a, b = Recorder("a"), Recorder("b")
    net.register(a)
    net.register(b)
    return sim, net, a, b


def send_bare(node, destination, message):
    return node.send(destination, message)


def send_frame(node, destination, message):
    return node.send_batch(destination, [message])


class TestDelivery:
    def test_message_arrives_after_latency(self):
        sim, net, a, b = make_pair(latency=3.0)
        a.send("b", {"hello": 1})
        sim.run()
        assert b.received == [(3.0, "a", {"hello": 1})]

    def test_callable_latency_draws_per_message(self):
        sim = Simulator(seed=1)
        net = Network(sim, latency=lambda rng: rng.uniform(1.0, 2.0))
        a, b = Recorder("a"), Recorder("b")
        net.register(a)
        net.register(b)
        for _ in range(5):
            a.send("b", "x")
        sim.run()
        times = [at for at, _, _ in b.received]
        assert len(times) == 5
        assert all(1.0 <= at <= 2.0 for at in times)

    def test_unknown_destination_raises(self):
        # A refused send is not a send: neither envelope counts it.
        sim, net, a, _ = make_pair()
        for ship in (send_bare, send_frame):
            with pytest.raises(NetworkError):
                ship(a, "nope", "x")
        assert net.stats == NetworkStats()

    def test_unregistered_node_cannot_send(self):
        node = Node("lonely")
        with pytest.raises(NetworkError):
            node.send("anyone", "x")

    def test_duplicate_node_id_rejected(self):
        sim = Simulator()
        net = Network(sim)
        net.register(Node("dup"))
        with pytest.raises(NetworkError):
            net.register(Node("dup"))


class TestLoss:
    ship = staticmethod(send_bare)

    def test_lossy_link_drops_some_messages(self):
        sim, net, a, b = make_pair(loss=0.5, seed=9)
        for _ in range(100):
            self.ship(a, "b", "x")
        sim.run()
        assert 20 < len(b.received) < 80
        assert net.stats.dropped_loss == 100 - len(b.received)

    def test_zero_loss_delivers_everything(self):
        sim, net, a, b = make_pair(loss=0.0)
        for _ in range(20):
            self.ship(a, "b", "x")
        sim.run()
        assert len(b.received) == 20


class TestPartitions:
    ship = staticmethod(send_bare)

    def test_partition_blocks_cross_group_traffic(self):
        sim, net, a, b = make_pair()
        net.partition_into({"a"}, {"b"})
        assert self.ship(a, "b", "x") is False
        sim.run()
        assert b.received == []
        assert net.stats.dropped_partition == 1

    def test_partition_allows_intra_group_traffic(self):
        sim = Simulator()
        net = Network(sim, latency=1.0)
        a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
        for node in (a, b, c):
            net.register(node)
        net.partition_into({"a", "b"}, {"c"})
        assert self.ship(a, "b", "x") is True
        sim.run()
        assert len(b.received) == 1

    def test_heal_restores_traffic(self):
        sim, net, a, b = make_pair()
        net.partition_into({"a"}, {"b"})
        net.heal()
        self.ship(a, "b", "x")
        sim.run()
        assert len(b.received) == 1

    def test_partition_starting_mid_flight_blocks_delivery(self):
        sim, net, a, b = make_pair(latency=10.0)
        self.ship(a, "b", "x")
        sim.schedule(5.0, lambda: net.partition_into({"a"}, {"b"}))
        sim.run()
        assert b.received == []

    def test_unlisted_nodes_are_unaffected(self):
        partition = Partition(groups=[{"a"}, {"b"}])
        assert partition.allows("a", "outsider")
        assert partition.allows("outsider", "b")
        assert not partition.allows("a", "b")


class TestCrashes:
    ship = staticmethod(send_bare)

    def test_crashed_node_receives_nothing(self):
        sim, net, a, b = make_pair()
        b.crash()
        self.ship(a, "b", "x")
        sim.run()
        assert b.received == []
        assert net.stats.dropped_crashed == 1

    def test_crashed_sender_cannot_send(self):
        sim, net, a, b = make_pair()
        a.crash()
        assert self.ship(a, "b", "x") is False

    def test_recovered_node_receives_again(self):
        sim, net, a, b = make_pair()
        b.crash()
        b.recover()
        self.ship(a, "b", "x")
        sim.run()
        assert len(b.received) == 1

    def test_crash_during_flight_drops_message(self):
        sim, net, a, b = make_pair(latency=10.0)
        self.ship(a, "b", "x")
        sim.schedule(5.0, b.crash)
        sim.run()
        assert b.received == []


class TestStats:
    ship = staticmethod(send_bare)

    def test_stats_account_for_all_outcomes(self):
        sim, net, a, b = make_pair()
        self.ship(a, "b", "ok")
        sim.run()  # deliver before injecting failures
        net.partition_into({"a"}, {"b"})
        self.ship(a, "b", "blocked")
        net.heal()
        b.crash()
        self.ship(a, "b", "to-crashed")
        sim.run()
        assert b.received == [(1.0, "a", "ok")]
        assert net.stats.sent == 3
        assert net.stats.delivered == 1
        assert net.stats.dropped == 2


class TestLossFrame(TestLoss):
    ship = staticmethod(send_frame)


class TestPartitionsFrame(TestPartitions):
    ship = staticmethod(send_frame)


class TestCrashesFrame(TestCrashes):
    ship = staticmethod(send_frame)


class TestStatsFrame(TestStats):
    ship = staticmethod(send_frame)
