"""Logical clocks and version vectors.

Subjective consistency (paper section 1) means each replica acts on its
local view; deciding later whether two updates were causally ordered or
concurrent requires logical time.  This module provides:

* :class:`LamportClock` — scalar logical time, totally ordered, used for
  last-update-wins tie-breaking (principle 2.10).
* :class:`VectorClock` — per-replica counters with a partial order that
  distinguishes *happened-before* from *concurrent*; the input to the
  conflict resolver.
* :class:`VersionVector` — a vector clock used as replica state summary
  for anti-entropy ("what have you seen that I haven't?").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping


class Ordering(enum.Enum):
    """Result of comparing two vector clocks."""

    BEFORE = "before"
    AFTER = "after"
    EQUAL = "equal"
    CONCURRENT = "concurrent"


class LamportClock:
    """A scalar logical clock (Lamport 1978).

    Each replica owns one; :meth:`tick` stamps local events and
    :meth:`observe` merges a remote stamp so causality is respected.
    """

    def __init__(self, start: int = 0):
        self.time = start

    def tick(self) -> int:
        """Advance for a local event and return the new stamp."""
        self.time += 1
        return self.time

    def observe(self, remote_time: int) -> int:
        """Merge a stamp received from another replica and tick."""
        self.time = max(self.time, remote_time) + 1
        return self.time


@dataclass(frozen=True)
class VectorClock:
    """An immutable vector clock: replica id -> event count.

    Immutability keeps clocks safe to embed in log events; all update
    operations return new instances.

    Example:
        >>> a = VectorClock().increment("r1")
        >>> b = VectorClock().increment("r2")
        >>> a.compare(b)
        <Ordering.CONCURRENT: 'concurrent'>
        >>> a.compare(a.increment("r1"))
        <Ordering.BEFORE: 'before'>
    """

    counts: Mapping[str, int] = field(default_factory=dict)

    def increment(self, replica_id: str) -> "VectorClock":
        """Return a copy with ``replica_id``'s component advanced by one."""
        merged = dict(self.counts)
        merged[replica_id] = merged.get(replica_id, 0) + 1
        return VectorClock(merged)

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Component-wise maximum (the join of the two histories)."""
        merged = dict(self.counts)
        for replica_id, count in other.counts.items():
            merged[replica_id] = max(merged.get(replica_id, 0), count)
        return VectorClock(merged)

    def get(self, replica_id: str) -> int:
        """This clock's component for ``replica_id`` (0 if absent)."""
        return self.counts.get(replica_id, 0)

    def compare(self, other: "VectorClock") -> Ordering:
        """Causal comparison.

        Returns:
            ``BEFORE`` if self happened-before other, ``AFTER`` for the
            converse, ``EQUAL`` if identical, else ``CONCURRENT``.
        """
        at_most = all(
            count <= other.get(replica_id) for replica_id, count in self.counts.items()
        )
        at_least = all(
            count <= self.get(replica_id) for replica_id, count in other.counts.items()
        )
        if at_most and at_least:
            return Ordering.EQUAL
        if at_most:
            return Ordering.BEFORE
        if at_least:
            return Ordering.AFTER
        return Ordering.CONCURRENT

    def dominates(self, other: "VectorClock") -> bool:
        """Whether this clock has seen everything ``other`` has."""
        return self.compare(other) in (Ordering.AFTER, Ordering.EQUAL)

    def concurrent_with(self, other: "VectorClock") -> bool:
        """Whether neither clock causally precedes the other."""
        return self.compare(other) is Ordering.CONCURRENT

    def replicas(self) -> Iterable[str]:
        """Replica ids with a non-zero component."""
        return self.counts.keys()

    def to_dict(self) -> dict[str, int]:
        """A plain-dict copy (for serialization into log events)."""
        return dict(self.counts)

    def __hash__(self) -> int:
        return hash(frozenset(self.counts.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self.compare(other) is Ordering.EQUAL

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(self.counts.items()))
        return f"VectorClock({{{inner}}})"


class VersionVector:
    """A mutable per-replica summary of observed events.

    Where :class:`VectorClock` stamps individual events, a version vector
    summarises a replica's whole history — "I have applied events 1..n
    from each origin" — and drives anti-entropy: the difference between
    two version vectors is exactly the set of events one side is missing.
    """

    def __init__(self, counts: Mapping[str, int] | None = None):
        #: origin -> highest applied sequence.  Public so a store's
        #: single-row append can :meth:`record` inline; anything else
        #: goes through the methods.
        self.counts: dict[str, int] = dict(counts or {})

    def record(self, replica_id: str, sequence: int) -> None:
        """Note that events from ``replica_id`` up to ``sequence`` have
        been applied (monotone: lower values are ignored)."""
        if sequence > self.counts.get(replica_id, 0):
            self.counts[replica_id] = sequence

    def advance(self, replica_id: str) -> int:
        """Advance ``replica_id``'s component by one and return it."""
        self.counts[replica_id] = self.counts.get(replica_id, 0) + 1
        return self.counts[replica_id]

    def get(self, replica_id: str) -> int:
        """Highest applied sequence from ``replica_id`` (0 if none)."""
        return self.counts.get(replica_id, 0)

    def merge(self, other: "VersionVector") -> None:
        """Absorb ``other`` (component-wise maximum), in place."""
        for replica_id, count in other.counts.items():
            self.record(replica_id, count)

    def missing_from(self, other: "VersionVector") -> dict[str, tuple[int, int]]:
        """Ranges this vector lacks relative to ``other``.

        Returns:
            ``{origin: (have, want)}`` for each origin where ``other``
            has seen more; the receiver should fetch events
            ``have+1 .. want`` from that origin.
        """
        gaps: dict[str, tuple[int, int]] = {}
        for replica_id, count in other.counts.items():
            have = self.get(replica_id)
            if count > have:
                gaps[replica_id] = (have, count)
        return gaps

    def snapshot(self) -> VectorClock:
        """An immutable :class:`VectorClock` view of the current state."""
        return VectorClock(dict(self.counts))

    def to_dict(self) -> dict[str, int]:
        """A plain-dict copy."""
        return dict(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        keys = set(self.counts) | set(other.counts)
        return all(self.get(key) == other.get(key) for key in keys)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(self.counts.items()))
        return f"VersionVector({{{inner}}})"
