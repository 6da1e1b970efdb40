"""End-to-end integration scenarios crossing subsystem boundaries.

Each scenario stitches several subsystems together the way the paper's
narrative does: replicated bookstores that apologise, deferred updates
with observable staleness, SOUPS pipelines surviving lossy messaging,
and the mixed-consistency single infrastructure.
"""

from __future__ import annotations

from repro.apps.bookstore import ENTERED, Bookstore, ReplicaSurface
from repro.core.compensation import CompensationManager
from repro.core.policy import RetryPolicy
from repro.replication.batching import BatchPolicy
from repro.core.consistency import (
    ConsistencyLevel,
    ConsistencyPolicy,
    PolicyRouter,
    SchemeBinding,
)
from repro.core.process import ProcessEngine
from repro.core.transaction import TransactionManager, UpdateMode
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.queues.reliable import ReliableQueue
from repro.replication.active_active import ActiveActiveGroup
from repro.replication.master_slave import MasterSlaveGroup
from repro.replication.warehouse import WarehouseExtract
from repro.sim.failure import FailureInjector
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


class TestShowMustGoOn:
    """Principle 2.11 end to end: service stays up through a partition,
    then reconciles with apologies."""

    def test_full_cycle_partition_oversell_heal_apologize(self):
        sim = Simulator(seed=11)
        net = Network(sim, latency=2.0)
        group = ActiveActiveGroup(sim, net, ["eu", "us"], anti_entropy_interval=15.0)
        injector = FailureInjector(sim, net)
        store = group.replicas["eu"].store
        compensation = CompensationManager(store, clock=lambda: sim.now)
        shop = Bookstore(compensation)
        shop.stock_book(ReplicaSurface(group, "eu"), "dune", copies=4)
        sim.run(until=10.0)
        injector.partition_window([["eu"], ["us"]], start=10.0, duration=40.0)
        sim.run(until=12.0)
        # Both continents keep selling through the partition (available!).
        accepted = 0
        for index in range(4):
            for region in ("eu", "us"):
                surface = ReplicaSurface(group, region)
                if shop.place_order(
                    surface, f"{region}-{index}", f"{region}-cust{index}",
                    "dune", at=sim.now + index,
                ) == ENTERED:
                    accepted += 1
        assert accepted == 8  # no order entry was refused during the partition
        sim.run(until=200.0)
        assert group.is_converged()
        report = shop.fulfill(store, "dune")
        assert report.fulfilled == 4
        assert report.apologized == 4
        # Every apology has compensation attached (comprehensible UX, 3.2).
        assert all(a.compensation for a in compensation.ledger.all())


class TestDeferredStaleness:
    """Principle 2.3 end to end: the response-time/staleness tradeoff."""

    def test_deferred_is_faster_but_stale_sync_is_slower_but_fresh(self):
        def run(update_mode):
            sim = Simulator()
            store = LSDBStore(clock=lambda: sim.now)
            manager = TransactionManager(
                store, sim=sim, update_mode=update_mode,
                commit_cost=1.0, defer_lag=1.0,
            )
            tx = manager.begin()
            tx.insert("order", "o1", {"total": 50})
            tx.defer(
                "aggregate",
                lambda s: s.apply_delta("daily", "today", Delta.add("rev", 50)),
                cost=8.0,
            )
            receipt = tx.commit()
            sim.run(until=receipt.acked_at)
            aggregate = store.get("daily", "today")
            visible_at_ack = aggregate is not None
            sim.run()
            return receipt.response_time, visible_at_ack

        deferred_latency, deferred_fresh = run(UpdateMode.DEFERRED)
        sync_latency, sync_fresh = run(UpdateMode.SYNCHRONOUS)
        assert deferred_latency < sync_latency
        assert not deferred_fresh  # the paper's read-your-writes caveat
        assert sync_fresh


class TestSoupsPipelineUnderLossyMessaging:
    """Principles 2.4/2.6 end to end: at-least-once + idempotence gives
    an exactly-once pipeline over unreliable infrastructure."""

    def test_order_pipeline_with_lost_acks(self):
        sim = Simulator(seed=6)
        queue = ReliableQueue(
            sim, ack_loss_probability=0.3, retry=RetryPolicy(max_attempts=40, base_delay=2.0)
        )
        store = LSDBStore(clock=lambda: sim.now)
        engine = ProcessEngine(TransactionManager(store, sim=sim, queue=queue), queue)

        @engine.step("accept", "order.submitted")
        def accept(ctx):
            key = ctx.message.payload["key"]
            ctx.insert("order", key, {"status": "accepted"})
            ctx.emit("order.accepted", {"key": key})

        @engine.step("invoice", "order.accepted")
        def invoice(ctx):
            key = ctx.message.payload["key"]
            ctx.insert("invoice", f"inv-{key}", {"order": key})
            ctx.emit("order.invoiced", {"key": key})

        @engine.step("tally", "order.invoiced")
        def tally(ctx):
            ctx.apply_delta("stats", "totals", Delta.add("invoiced", 1))

        for index in range(20):
            engine.start_process("order.submitted", {"key": f"o{index}"})
        sim.run()
        # Exactly-once effects despite duplicate deliveries:
        assert store.get("stats", "totals").fields["invoiced"] == 20
        assert len(store.entities_of_type("invoice")) == 20
        assert queue.stats.redelivered > 0  # losses really happened


class TestMixedConsistencySingleInfrastructure:
    """Section 3.1/3.2 end to end: one metadata-driven router, three
    consistency levels, one application."""

    def test_policy_routed_bookstore(self):
        sim = Simulator(seed=9)
        net = Network(sim, latency=2.0)
        group = MasterSlaveGroup(
            sim, net, "master", ["slave"], ship_interval=10.0,
            batching=BatchPolicy(),
        )
        warehouse = WarehouseExtract(sim, group.master.store, interval=25.0)

        router = PolicyRouter()
        router.add_policy(ConsistencyPolicy(
            "book_stock", ConsistencyLevel.STRONG,
            rationale="fulfilment must not oversell",
        ))
        router.add_policy(ConsistencyPolicy(
            "book_order", ConsistencyLevel.BOUNDED_STALENESS,
            rationale="order entry reads may lag",
        ))
        router.add_policy(ConsistencyPolicy(
            "sales_report", ConsistencyLevel.EXTRACT,
            rationale="analytics tolerate extract staleness",
        ))
        router.bind(ConsistencyLevel.STRONG, SchemeBinding(
            write=lambda etype, key, fields: group.write_insert(etype, key, fields),
            read=lambda etype, key: group.read_at("master", etype, key),
        ))
        router.bind(ConsistencyLevel.BOUNDED_STALENESS, SchemeBinding(
            write=lambda etype, key, fields: group.write_insert(etype, key, fields),
            read=lambda etype, key: group.read_at("slave", etype, key),
        ))
        router.bind(ConsistencyLevel.EXTRACT, SchemeBinding(
            write=lambda *args: (_ for _ in ()).throw(RuntimeError("read-only")),
            read=lambda etype, key: warehouse.get(etype, key),
        ))

        router.write("book_stock", "moby", {"copies": 5})
        # Strong read is immediately fresh:
        assert router.read("book_stock", "moby").fields["copies"] == 5
        # Bounded-staleness read lags until shipping:
        router.write("book_order", "o1", {"status": "entered"})
        assert router.read("book_order", "o1") is None
        sim.run(until=20.0)
        assert router.read("book_order", "o1").fields["status"] == "entered"
        # Extract read lags until the next extract:
        assert router.routed[ConsistencyLevel.STRONG] == 2


class TestInsertOnlyAuditAcrossCompaction:
    """Principle 2.7 end to end: compaction bounds the live log while the
    regulatory audit trail survives in the archive."""

    def test_bank_history_survives_compaction(self):
        from repro.apps.banking import BankApp

        store = LSDBStore()
        bank = BankApp(TransactionManager(store))
        bank.open_account("a1", owner="ada")
        for index in range(30):
            bank.deposit("a1", 1, memo=f"op{index}")
        live_before = store.live_events
        store.compact(keep_recent=5)
        assert store.live_events < live_before
        # The balance is unchanged and the regulatory trail is intact.
        assert bank.balance("a1") == 30
        assert len(store.archive.regulatory_events()) > 0
        history = store.history("account", "a1")
        assert history  # archived + summarised + live
