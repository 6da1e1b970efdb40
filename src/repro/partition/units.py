"""Serialization units: partitions with separate logs.

Principle 2.5: "A single organization may partition data by entity type
and key, where partitions are managed as separate 'serialization units'
with separate logs. [...] Following the focused transaction principle
avoids commits across multiple units, which might be distributed
commits."

A :class:`SerializationUnit` is one such partition: it owns an
:class:`~repro.lsdb.store.LSDBStore` (hence its own log and total order),
a logical lock table, and a local event queue.  There is *no* shared
state between units — anything crossing units travels as messages or as
a two-phase commit (the expensive path experiment E3 measures).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.locks.logical import LogicalLockManager
from repro.lsdb.store import LSDBStore
from repro.queues.reliable import ReliableQueue
from repro.sim.scheduler import Simulator


class SerializationUnit:
    """One partition: a store, its lock table and its local queue.

    Args:
        name: Unit name (also the store's origin id).
        sim: Optional simulator; when given, the unit's store is clocked
            by it and the unit gets a local :class:`ReliableQueue`.
        local_commit_cost: Virtual time one local commit occupies the
            unit's log (serialization: commits on one unit do not
            overlap).  Used by throughput experiments.
    """

    def __init__(
        self,
        name: str,
        sim: Optional[Simulator] = None,
        local_commit_cost: float = 1.0,
    ):
        self.name = name
        self.sim = sim
        self.local_commit_cost = local_commit_cost
        clock: Callable[[], float] = (lambda: sim.now) if sim else (lambda: 0.0)
        self.store = LSDBStore(
            name=name,
            origin=name,
            clock=clock,
            tracer=sim.tracer if sim else None,
            metrics=sim.metrics if sim else None,
        )
        self.locks = LogicalLockManager(name=f"{name}-locks")
        self.queue = ReliableQueue(sim, name=f"{name}-queue") if sim else None
        self._busy_until = 0.0
        self.commits = 0

    def next_commit_slot(self) -> float:
        """Reserve the unit's log for one commit and return the virtual
        time at which that commit completes.

        Models the serialization property: two commits on one unit never
        overlap, so a commit arriving while the log is busy queues behind
        the previous one.  Callers in simulator-driven workloads use the
        returned time as the commit's completion time.
        """
        now = self.sim.now if self.sim else 0.0
        start = max(now, self._busy_until)
        self._busy_until = start + self.local_commit_cost
        self.commits += 1
        return self._busy_until

    @property
    def busy_until(self) -> float:
        """Virtual time until which the unit's log is occupied."""
        return self._busy_until

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SerializationUnit({self.name!r}, commits={self.commits})"
