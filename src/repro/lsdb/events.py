"""Log event records — the unit of storage in the LSDB.

Paper section 3.1: "storing events when they arrive, with inserts treated
as events, in a log-structured database (LSDB)".  Every state change in
this library — inserts, commutative deltas, field overwrites, deletion
marks, obsolescence marks for tentative data, and compaction summaries —
is an immutable :class:`LogEvent` appended to an
:class:`~repro.lsdb.log.AppendOnlyLog`.

Events carry their *origin* replica and a per-origin sequence number so
replication can deduplicate redeliveries (at-least-once messaging plus
idempotence, principle 2.4) and version vectors can summarise what a
replica has seen.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional


class EventKind(enum.Enum):
    """The operation an event describes.

    The catalogue deliberately mirrors the principles:

    * ``INSERT`` — new entity version (insert-only storage, 2.7).
    * ``DELTA`` — commutative adjustment (operations not consequences, 2.8).
    * ``SET_FIELDS`` — overwrite of named fields (last-update-wins when
      concurrent; the non-commutative case the resolver must handle).
    * ``TOMBSTONE`` — deletion *mark*, never physical removal (2.7).
    * ``OBSOLETE`` — a tentative change that did not become permanent is
      marked obsolete, not erased (section 3.2).
    * ``SUMMARY`` — a compaction artefact replacing a run of older
      events with their aggregate (2.7, summarization and archival).
    """

    INSERT = "insert"
    DELTA = "delta"
    SET_FIELDS = "set_fields"
    TOMBSTONE = "tombstone"
    OBSOLETE = "obsolete"
    SUMMARY = "summary"

    #: Position in the order above, 0 = ``INSERT`` — the arena's and the
    #: wire's kind code.  A plain attribute of each member, so an append
    #: encodes its kind without hashing an ``Enum`` (a Python-level
    #: ``__hash__``).
    code: int


for _code, _kind in enumerate(EventKind):
    _kind.code = _code


@dataclass(frozen=True, slots=True)
class LogEvent:
    """An immutable record of one operation on one entity.

    Slotted: a log holds one instance per event *forever* (insert-only
    storage, 2.7), so the per-instance ``__dict__`` of an unslotted
    class dominated the store's memory footprint.  With ``__slots__``
    an event is a fixed 13-pointer record; the bench suite records the
    measured footprint/throughput delta in ``BENCH_dataplane.json``.

    Attributes:
        lsn: Log sequence number, assigned by the owning log at append
            time (0 means "not yet appended").
        timestamp: Virtual time of the operation (simulator clock).
        entity_type: Name of the entity type in the catalog.
        entity_key: Business key of the entity instance.
        kind: What the operation is (see :class:`EventKind`).
        payload: Operation arguments: field values for ``INSERT`` /
            ``SET_FIELDS`` / ``SUMMARY``, a serialized
            :class:`~repro.merge.deltas.Delta` for ``DELTA``, free-form
            for marks.
        origin: Replica id where the operation first entered the system.
        origin_seq: Per-origin monotone sequence number (for version
            vectors and idempotent replication).
        tx_id: Identifier of the transaction that produced the event.
        schema_version: Version of the entity type's schema the payload
            was written under; readers must tolerate older versions
            (section 3.1 on sustainable application environments).
        tags: Free-form labels; compaction preserves events tagged
            ``"regulatory"`` in the archive rather than dropping them.
        trace_id: Causal trace this event belongs to ("" when tracing
            is off).  Travels with the event through replication, so a
            remote apply can attach to the origin append's trace.
        span_id: The span of the append that created the event — the
            parent for downstream spans (ship, apply, index refresh).
    """

    lsn: int
    timestamp: float
    entity_type: str
    entity_key: str
    kind: EventKind
    payload: Mapping[str, Any] = field(default_factory=dict)
    origin: str = "local"
    origin_seq: int = 0
    tx_id: str = ""
    schema_version: int = 1
    tags: frozenset[str] = frozenset()
    trace_id: str = ""
    span_id: str = ""

    def with_lsn(self, lsn: int) -> "LogEvent":
        """A copy with the log-assigned sequence number.

        Built by copying slots directly rather than re-running the
        dataclass ``__init__`` — this runs once per append, and the
        (frozen) constructor is the single most expensive step on that
        path.  ``object.__setattr__`` is the only way to populate a
        frozen instance made with ``__new__``.
        """
        clone = object.__new__(LogEvent)
        assign = object.__setattr__
        assign(clone, "lsn", lsn)
        assign(clone, "timestamp", self.timestamp)
        assign(clone, "entity_type", self.entity_type)
        assign(clone, "entity_key", self.entity_key)
        assign(clone, "kind", self.kind)
        assign(clone, "payload", self.payload)
        assign(clone, "origin", self.origin)
        assign(clone, "origin_seq", self.origin_seq)
        assign(clone, "tx_id", self.tx_id)
        assign(clone, "schema_version", self.schema_version)
        assign(clone, "tags", self.tags)
        assign(clone, "trace_id", self.trace_id)
        assign(clone, "span_id", self.span_id)
        return clone

    @staticmethod
    def build(
        lsn: int,
        timestamp: float,
        entity_type: str,
        entity_key: str,
        kind: "EventKind",
        payload: Mapping[str, Any],
        origin: str,
        origin_seq: int,
        tx_id: str,
        schema_version: int,
        tags: frozenset[str],
        trace_id: str,
        span_id: str,
    ) -> "LogEvent":
        """Fast positional constructor bypassing the dataclass ``__init__``.

        The columnar arena materializes a :class:`LogEvent` lazily, only
        when an API boundary needs the object form; this is the single
        place outside :meth:`with_lsn` allowed to populate a frozen
        instance made with ``__new__``, so knowledge of the slot layout
        stays in this module.
        """
        clone = object.__new__(LogEvent)
        assign = object.__setattr__
        assign(clone, "lsn", lsn)
        assign(clone, "timestamp", timestamp)
        assign(clone, "entity_type", entity_type)
        assign(clone, "entity_key", entity_key)
        assign(clone, "kind", kind)
        assign(clone, "payload", payload)
        assign(clone, "origin", origin)
        assign(clone, "origin_seq", origin_seq)
        assign(clone, "tx_id", tx_id)
        assign(clone, "schema_version", schema_version)
        assign(clone, "tags", tags)
        assign(clone, "trace_id", trace_id)
        assign(clone, "span_id", span_id)
        return clone

    @property
    def identity(self) -> tuple[str, int]:
        """Globally unique event identity: ``(origin, origin_seq)``.

        Two deliveries of the same event (at-least-once messaging) share
        this identity, which is what the idempotent apply path checks.
        """
        return (self.origin, self.origin_seq)

    @property
    def entity_ref(self) -> tuple[str, str]:
        """``(entity_type, entity_key)`` — the entity this event touches."""
        return (self.entity_type, self.entity_key)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-friendly representation (used by archival)."""
        return {
            "lsn": self.lsn,
            "timestamp": self.timestamp,
            "entity_type": self.entity_type,
            "entity_key": self.entity_key,
            "kind": self.kind.value,
            "payload": dict(self.payload),
            "origin": self.origin,
            "origin_seq": self.origin_seq,
            "tx_id": self.tx_id,
            "schema_version": self.schema_version,
            "tags": sorted(self.tags),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "LogEvent":
        """Inverse of :meth:`to_dict`."""
        return LogEvent(
            lsn=int(data["lsn"]),
            timestamp=float(data["timestamp"]),
            entity_type=str(data["entity_type"]),
            entity_key=str(data["entity_key"]),
            kind=EventKind(data["kind"]),
            payload=dict(data.get("payload", {})),
            origin=str(data.get("origin", "local")),
            origin_seq=int(data.get("origin_seq", 0)),
            tx_id=str(data.get("tx_id", "")),
            schema_version=int(data.get("schema_version", 1)),
            tags=frozenset(data.get("tags", ())),
            trace_id=str(data.get("trace_id", "")),
            span_id=str(data.get("span_id", "")),
        )
