"""Tests for the bookstore: entry/fulfilment separation and apologies."""

from __future__ import annotations

from repro.apps.bookstore import (
    APOLOGIZED,
    ENTERED,
    FULFILLED,
    REJECTED,
    Bookstore,
    ReplicaSurface,
    StoreSurface,
)
from repro.core.compensation import CompensationManager
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.replication.active_active import ActiveActiveGroup
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


def make_local_shop(copies=5):
    store = LSDBStore()
    shop = Bookstore(CompensationManager(store))
    surface = StoreSurface(store)
    shop.stock_book(surface, "moby", copies=copies)
    return store, shop, surface


class TestSingleStore:
    def test_entry_accepts_while_available(self):
        _, shop, surface = make_local_shop(copies=2)
        assert shop.place_order(surface, "o1", "ada", "moby") == ENTERED
        assert shop.place_order(surface, "o2", "bob", "moby") == ENTERED
        assert shop.place_order(surface, "o3", "cyn", "moby") == REJECTED
        assert shop.orders_entered == 2 and shop.orders_rejected == 1

    def test_fulfilment_in_entry_order(self):
        store, shop, surface = make_local_shop(copies=1)
        shop.place_order(surface, "o1", "ada", "moby", at=1.0)
        # Force a second acceptance despite zero availability, modelling a
        # replica that hadn't seen o1 (write directly):
        store.insert("book_order", "o2", {
            "customer": "bob", "book_key": "moby", "quantity": 1,
            "status": ENTERED, "entered_at": 2.0,
        })
        report = shop.fulfill(store, "moby")
        assert report.fulfilled == 1 and report.apologized == 1
        assert store.get("book_order", "o1").fields["status"] == FULFILLED
        assert store.get("book_order", "o2").fields["status"] == APOLOGIZED

    def test_apology_carries_refund_compensation(self):
        store, shop, surface = make_local_shop(copies=0)
        store.insert("book_order", "o1", {
            "customer": "ada", "book_key": "moby", "quantity": 1,
            "status": ENTERED, "entered_at": 1.0,
        })
        shop.fulfill(store, "moby")
        apology = shop.compensation.ledger.all()[0]
        assert apology.reason == "oversold"
        assert "refunded order o1" in apology.compensation

    def test_fulfilment_is_idempotent(self):
        store, shop, surface = make_local_shop(copies=1)
        shop.place_order(surface, "o1", "ada", "moby")
        shop.fulfill(store, "moby")
        second = shop.fulfill(store, "moby")
        assert second.fulfilled == 0
        assert second.already_final == 1
        assert shop.apology_count() == 0

    def test_multi_quantity_orders(self):
        store, shop, surface = make_local_shop(copies=5)
        shop.place_order(surface, "o1", "ada", "moby", quantity=3, at=1.0)
        shop.place_order(surface, "o2", "bob", "moby", quantity=3, at=2.0)
        # 6 > 5 subjective availability catches the second at entry:
        assert store.get("book_order", "o2") is None
        shop.place_order(surface, "o3", "cyn", "moby", quantity=2, at=3.0)
        report = shop.fulfill(store, "moby")
        assert report.fulfilled == 2

    def test_strong_entry_never_apologizes(self):
        store, shop, _ = make_local_shop(copies=2)
        outcomes = [
            shop.place_order_strong(store, f"o{i}", f"c{i}", "moby", at=float(i))
            for i in range(4)
        ]
        assert outcomes.count(ENTERED) == 2 and outcomes.count(REJECTED) == 2
        report = shop.fulfill(store, "moby")
        assert report.apologized == 0
        assert shop.apology_count() == 0


class TestReplicatedOverbooking:
    def test_partitioned_replicas_oversell_then_apologize(self):
        sim = Simulator(seed=1)
        net = Network(sim, latency=2.0)
        group = ActiveActiveGroup(sim, net, ["r1", "r2"], anti_entropy_interval=10.0)
        store = group.replicas["r1"].store
        shop = Bookstore(CompensationManager(store, clock=lambda: sim.now))
        surface_r1 = ReplicaSurface(group, "r1")
        surface_r2 = ReplicaSurface(group, "r2")
        shop.stock_book(surface_r1, "moby", copies=3)
        sim.run(until=10.0)
        net.partition_into({"r1"}, {"r2"})
        # Each side subjectively sees 3 copies and sells 3.
        for index in range(3):
            assert shop.place_order(
                surface_r1, f"a{index}", f"cust-a{index}", "moby", at=sim.now + index
            ) == ENTERED
            assert shop.place_order(
                surface_r2, f"b{index}", f"cust-b{index}", "moby", at=sim.now + index
            ) == ENTERED
        net.heal()
        sim.run(until=200.0)
        assert group.is_converged()
        # Converged availability is negative: 3 - 6.
        assert group.read_at("r1", "book_stock", "moby").fields["available"] == -3
        report = shop.fulfill(store, "moby")
        assert report.fulfilled == 3
        assert report.apologized == 3
        assert shop.apology_count() == 3

    def test_no_partition_no_apologies(self):
        sim = Simulator(seed=2)
        net = Network(sim, latency=1.0)
        group = ActiveActiveGroup(sim, net, ["r1", "r2"], anti_entropy_interval=5.0)
        store = group.replicas["r1"].store
        shop = Bookstore(CompensationManager(store, clock=lambda: sim.now))
        surface = ReplicaSurface(group, "r1")
        shop.stock_book(surface, "moby", copies=3)
        sim.run(until=10.0)
        entered = 0
        for index in range(6):
            if shop.place_order(
                surface, f"o{index}", f"c{index}", "moby", at=sim.now
            ) == ENTERED:
                entered += 1
            sim.run(until=sim.now + 5.0)
        assert entered == 3  # a single consistent view never over-accepts
        report = shop.fulfill(store, "moby")
        assert report.apologized == 0
