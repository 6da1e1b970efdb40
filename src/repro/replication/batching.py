"""Frame batching for the replication data plane.

Every scheme in this package ultimately moves runs of log events between
:class:`~repro.replication.replica.ReplicaNode` peers.  Unbatched, each
event is one wire message — one latency draw, one loss coin, one
scheduler entry.  This module provides the two pieces that turn those
runs into :class:`~repro.sim.network.Frame` shipments:

* :class:`BatchPolicy` — how to cut an event run into LSN-contiguous
  frames (``max_batch``) and whether an eager shipper may hold events
  back briefly to coalesce them (``flush_interval``).
* :class:`FrameShipper` — per-destination coalescing buffers used by
  eager propagation (active/active), flushing on size or on a timer.

The default policy (``max_batch=None``) is the degenerate one-event
frame: wire behaviour, fault injection and chaos semantics are exactly
the per-message model the rest of the suite was built on, which is what
keeps the batched and unbatched paths comparable in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.lsdb.columnar import EventSlice, ascends_by_one

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.replication.replica import ReplicaNode


@dataclass(frozen=True)
class BatchPolicy:
    """How a shipper cuts event runs into wire frames.

    Attributes:
        max_batch: Maximum events per frame.  ``None`` means unbatched:
            every event ships as its own (degenerate) frame, the
            historical one-message-per-event behaviour.
        flush_interval: Virtual time an eager shipper may buffer events
            waiting for more, trading a bounded extra latency for fuller
            frames.  ``0.0`` disables coalescing (ship immediately).

    Frames are **contiguous runs**: a frame never papers over a gap.
    Two adjacent events belong in the same frame only when the second
    directly succeeds the first — by store LSN (log-tail shipping) or by
    per-origin sequence (anti-entropy repair feeds).  The receiver can
    therefore treat a frame like the uninterrupted log run it is, and a
    dropped frame loses one contiguous window that the version-vector
    probes detect and re-ship wholesale.
    """

    max_batch: Optional[int] = None
    flush_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.flush_interval < 0:
            raise ValueError(
                f"flush_interval must be >= 0, got {self.flush_interval}"
            )

    @property
    def coalesces(self) -> bool:
        """Whether eager shippers should buffer behind a flush timer."""
        return self.flush_interval > 0

    def chunk_rows(self, view: EventSlice) -> Iterator[EventSlice]:
        """Split an :class:`EventSlice` into frame-sized contiguous
        runs *without materializing events*.

        Yields non-empty slices of at most :attr:`max_batch` rows where
        each row directly succeeds its predecessor — same-store LSN + 1,
        or same origin with origin_seq + 1 — decided straight from the
        arena's LSN / origin-id / origin-seq columns.  The chaos
        determinism signature pins these frame boundaries.

        A run of consecutive arena rows that is one LSN run or one
        origin's sequence run as a whole (a node's own backlog always
        is) is cut by arithmetic alone.
        """
        arena = view.arena
        rows = view.rows
        count = len(rows)
        if not count:
            return
        limit = 1 if self.max_batch is None else self.max_batch
        if isinstance(rows, range) and rows.step == 1:
            lo, hi = rows.start, rows.stop
            origin_ids = arena.origin_ids[lo:hi]
            if (arena.lsns[lo] > 0 and ascends_by_one(arena.lsns[lo:hi])) or (
                origin_ids.count(origin_ids[0]) == count
                and ascends_by_one(arena.origin_seqs[lo:hi])
            ):
                for start in range(lo, hi, limit):
                    yield EventSlice(arena, range(start, min(start + limit, hi)))
                return
        lsns = arena.lsns
        origin_ids = arena.origin_ids
        origin_seqs = arena.origin_seqs
        start = 0
        previous = rows[0]
        for position in range(1, count):
            row = rows[position]
            if position - start >= limit or not (
                (lsns[previous] > 0 and lsns[row] == lsns[previous] + 1)
                or (
                    origin_ids[row] == origin_ids[previous]
                    and origin_seqs[row] == origin_seqs[previous] + 1
                )
            ):
                yield EventSlice(arena, rows[start:position])
                start = position
            previous = row
        yield EventSlice(arena, rows[start:count])


class FrameShipper:
    """Per-destination coalescing buffers for an eager shipper.

    Eager propagation (active/active) ships at write time, so without
    help every write is a one-event frame no matter what ``max_batch``
    says.  The shipper buffers offered rows (of the owning node's
    arena) per destination and flushes either when a buffer reaches
    ``max_batch`` rows or when the ``flush_interval`` timer (armed at
    the first buffered row) fires — whichever comes first.  Losses are not retried here: the
    schemes' anti-entropy probes already repair any dropped frame, and
    apply is idempotent.

    Args:
        node: The owning replica; supplies the simulator (for flush
            timers) and :meth:`~repro.replication.replica.ReplicaNode.ship_events`.
        policy: The batching policy; must have :attr:`BatchPolicy.coalesces`.
    """

    def __init__(self, node: "ReplicaNode", policy: BatchPolicy):
        self.node = node
        self.policy = policy
        self._buffers: dict[str, list[int]] = {}
        self._armed: set[str] = set()

    def offer(self, destination: str, events: EventSlice) -> None:
        """Buffer the node's own rows for ``destination``; flush on size
        or timer."""
        buffer = self._buffers.setdefault(destination, [])
        buffer.extend(events.rows)
        limit = self.policy.max_batch
        if limit is not None and len(buffer) >= limit:
            self.flush(destination)
            return
        if destination not in self._armed:
            self._armed.add(destination)
            self.node.sim.schedule(
                self.policy.flush_interval,
                lambda: self._timed_flush(destination),
                label=f"frame-flush {self.node.node_id}->{destination}",
            )

    def _timed_flush(self, destination: str) -> None:
        self._armed.discard(destination)
        self.flush(destination)

    def flush(self, destination: str) -> bool:
        """Ship everything buffered for one destination right now."""
        buffer = self._buffers.get(destination)
        if not buffer:
            return True
        self._buffers[destination] = []
        return self.node.ship_events(
            destination, EventSlice(self.node.store.log.arena, buffer)
        )

    def pending(self, destination: Optional[str] = None) -> int:
        """Buffered-but-unshipped event count (one or all destinations)."""
        if destination is not None:
            return len(self._buffers.get(destination, ()))
        return sum(len(buffer) for buffer in self._buffers.values())
