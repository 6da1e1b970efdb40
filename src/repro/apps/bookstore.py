"""Bookstore: Order Entry / Fulfilment separation and overbooking.

The paper's apology scenario (principle 2.9, section 3.2): "there were
only 5 copies of the book available, and more than 5 were sold.  [...]
note the tentativity choreography in book processing introduced by
separating Order Entry from Fulfillment; the user has been told that the
book order has been received, but not that it will be fulfilled."

The app works against any *surface* — a plain store, one replica of an
active/active group, or the master of a master/slave group — so the
same business logic runs in every consistency configuration the
experiments compare:

* **Subjective entry** (:meth:`Bookstore.place_order`): check the
  surface's (possibly stale, possibly divergent) view of availability,
  accept, decrement.  Fast and always available; overbooking possible.
* **Fulfilment** (:meth:`Bookstore.fulfill`): later, against a
  converged or authoritative store, allocate physical copies in entry
  order; orders beyond physical stock get apologies with compensation.
* **Strong entry** (:meth:`Bookstore.place_order_strong`): serialize on
  the authoritative stock and *reject* instead of over-accept — no
  apologies, at the cost of rejecting demand (and, in replicated
  deployments, of entry latency/availability).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Protocol

from repro.core.compensation import CompensationManager
from repro.lsdb.rollup import EntityState
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta

STOCK_TYPE = "book_stock"
ORDER_TYPE = "book_order"

#: Order lifecycle states.
ENTERED = "entered"
REJECTED = "rejected"
FULFILLED = "fulfilled"
APOLOGIZED = "apologized"


class Surface(Protocol):
    """Where the bookstore reads and writes — a store or a replica."""

    def read(self, entity_type: str, entity_key: str) -> Optional[EntityState]:
        """Current (subjective) state of an entity."""
        ...

    def insert(self, entity_type: str, entity_key: str, fields: dict[str, Any]) -> None:
        """Insert an entity."""
        ...

    def apply_delta(self, entity_type: str, entity_key: str, delta: Delta) -> None:
        """Apply a commutative adjustment."""
        ...

    def set_fields(self, entity_type: str, entity_key: str, fields: dict[str, Any]) -> None:
        """Overwrite fields."""
        ...


class StoreSurface:
    """Surface over a plain :class:`LSDBStore`."""

    def __init__(self, store: LSDBStore):
        self.store = store

    def read(self, entity_type, entity_key):
        return self.store.get(entity_type, entity_key)

    def insert(self, entity_type, entity_key, fields):
        self.store.insert(entity_type, entity_key, fields)

    def apply_delta(self, entity_type, entity_key, delta):
        self.store.apply_delta(entity_type, entity_key, delta)

    def set_fields(self, entity_type, entity_key, fields):
        self.store.set_fields(entity_type, entity_key, fields)


class ReplicaSurface:
    """Surface over one replica of an
    :class:`~repro.replication.active_active.ActiveActiveGroup`: reads
    are that replica's view, writes propagate through the group."""

    def __init__(self, group, replica_id: str):
        self.group = group
        self.replica_id = replica_id

    def read(self, entity_type, entity_key):
        return self.group.read_at(self.replica_id, entity_type, entity_key)

    def insert(self, entity_type, entity_key, fields):
        self.group.write_insert(self.replica_id, entity_type, entity_key, fields)

    def apply_delta(self, entity_type, entity_key, delta):
        self.group.write_delta(self.replica_id, entity_type, entity_key, delta)

    def set_fields(self, entity_type, entity_key, fields):
        self.group.write_set_fields(self.replica_id, entity_type, entity_key, fields)


class MasterReadSlaveSurface:
    """Surface for the mixed-consistency deployment of experiment E10:
    *reads* go to a slave (stale by the shipping interval), *writes* go
    to the master.  Stale availability checks are exactly how this
    deployment overbooks."""

    def __init__(self, group, slave_id: str):
        self.group = group
        self.slave_id = slave_id

    def read(self, entity_type, entity_key):
        return self.group.read_at(self.slave_id, entity_type, entity_key)

    def insert(self, entity_type, entity_key, fields):
        self.group.write_insert(entity_type, entity_key, fields)

    def apply_delta(self, entity_type, entity_key, delta):
        self.group.write_delta(entity_type, entity_key, delta)

    def set_fields(self, entity_type, entity_key, fields):
        # Master/slave group exposes insert/delta; emulate overwrite as
        # insert of a new version (insert-only storage makes these
        # equivalent at the rollup).
        self.group.write_insert(entity_type, entity_key, fields)


@dataclass
class FulfillmentReport:
    """What one fulfilment pass did."""

    book_key: str
    fulfilled: int = 0
    apologized: int = 0
    already_final: int = 0

    @property
    def apology_rate(self) -> float:
        """Apologies per decided order in this pass."""
        decided = self.fulfilled + self.apologized
        return self.apologized / decided if decided else 0.0


class Bookstore:
    """The bookstore application logic.

    Args:
        compensation: Where apologies are recorded and refunds run.  A
            ``refund`` compensator is registered automatically.
    """

    def __init__(self, compensation: CompensationManager):
        self.compensation = compensation
        self.orders_entered = 0
        self.orders_rejected = 0
        compensation.register_compensator(
            "refund",
            lambda context: (
                f"refunded order {context.get('order_id', '?')} "
                f"for {context.get('customer', '?')}"
            ),
        )

    # ------------------------------------------------------------------ #
    # Catalogue
    # ------------------------------------------------------------------ #

    def stock_book(
        self, surface: Surface, book_key: str, copies: int, price: float = 10.0
    ) -> None:
        """List a title with ``copies`` physical copies.

        ``available`` is the subjective sell-from counter (each entry
        decrements it); ``copies_physical`` is reality, consulted only
        by fulfilment.
        """
        surface.insert(
            STOCK_TYPE,
            book_key,
            {"copies_physical": copies, "available": copies, "price": price},
        )

    # ------------------------------------------------------------------ #
    # Order entry
    # ------------------------------------------------------------------ #

    def place_order(
        self,
        surface: Surface,
        order_id: str,
        customer: str,
        book_key: str,
        quantity: int = 1,
        at: float = 0.0,
    ) -> str:
        """Subjective order entry against ``surface``'s local view.

        Returns ``"entered"`` or ``"rejected"``.  An entered order means
        "received", *not* "will be fulfilled" — the choreography that
        keeps later apologies comprehensible.
        """
        stock = surface.read(STOCK_TYPE, book_key)
        if stock is None or stock.get("available", 0) < quantity:
            self.orders_rejected += 1
            return REJECTED
        surface.insert(
            ORDER_TYPE,
            order_id,
            {
                "customer": customer,
                "book_key": book_key,
                "quantity": quantity,
                "status": ENTERED,
                "entered_at": at,
            },
        )
        surface.apply_delta(STOCK_TYPE, book_key, Delta.add("available", -quantity))
        self.orders_entered += 1
        return ENTERED

    def place_order_strong(
        self,
        store: LSDBStore,
        order_id: str,
        customer: str,
        book_key: str,
        quantity: int = 1,
        at: float = 0.0,
    ) -> str:
        """Strongly consistent entry: serialize on the authoritative
        store and never promise what physical stock cannot cover.

        Accepted orders are fulfilled immediately (entry and fulfilment
        collapse); excess demand is *rejected*, not apologised to.
        """
        stock = store.get(STOCK_TYPE, book_key)
        remaining = self._physical_remaining(store, book_key, stock)
        if stock is None or remaining < quantity:
            self.orders_rejected += 1
            return REJECTED
        store.insert(
            ORDER_TYPE,
            order_id,
            {
                "customer": customer,
                "book_key": book_key,
                "quantity": quantity,
                "status": FULFILLED,
                "entered_at": at,
            },
        )
        store.apply_delta(STOCK_TYPE, book_key, Delta.add("available", -quantity))
        self.orders_entered += 1
        return ENTERED

    # ------------------------------------------------------------------ #
    # Fulfilment
    # ------------------------------------------------------------------ #

    def fulfill(self, store: LSDBStore, book_key: str) -> FulfillmentReport:
        """Allocate physical copies to entered orders, in entry order.

        Runs against an authoritative/converged store.  Orders beyond
        the physical count get an apology with a refund — the honest
        price of subjective acceptance.
        """
        report = FulfillmentReport(book_key=book_key)
        stock = store.get(STOCK_TYPE, book_key)
        if stock is None:
            return report
        remaining = self._physical_remaining(store, book_key, stock)
        for order in self._orders_for(store, book_key):
            status = order.get("status")
            if status in (FULFILLED, APOLOGIZED, REJECTED):
                report.already_final += 1
                continue
            quantity = order.get("quantity", 1)
            if remaining >= quantity:
                remaining -= quantity
                store.set_fields(ORDER_TYPE, order.entity_key, {"status": FULFILLED})
                report.fulfilled += 1
            else:
                store.set_fields(ORDER_TYPE, order.entity_key, {"status": APOLOGIZED})
                self.compensation.apologize(
                    to_party=order.get("customer", "?"),
                    reason="oversold",
                    kind="refund",
                    context={
                        "order_id": order.entity_key,
                        "customer": order.get("customer"),
                        "book_key": book_key,
                    },
                    related_op=order.entity_key,
                )
                report.apologized += 1
        return report

    # ------------------------------------------------------------------ #
    # Helpers & metrics
    # ------------------------------------------------------------------ #

    def _orders_for(self, store: LSDBStore, book_key: str) -> list[EntityState]:
        orders = [
            state
            for state in store.entities_of_type(ORDER_TYPE)
            if state.get("book_key") == book_key
        ]
        orders.sort(key=lambda state: (state.get("entered_at", 0.0), state.entity_key))
        return orders

    def _physical_remaining(
        self, store: LSDBStore, book_key: str, stock: Optional[EntityState]
    ) -> int:
        if stock is None:
            return 0
        committed = sum(
            order.get("quantity", 1)
            for order in self._orders_for(store, book_key)
            if order.get("status") == FULFILLED
        )
        return stock.get("copies_physical", 0) - committed

    def apology_count(self) -> int:
        """Total apologies issued through this app's compensation
        manager."""
        return self.compensation.ledger.count()
