"""Pending operations: the buffered writes of an open transaction.

A transaction does not touch the log until commit; until then its
writes are :class:`PendingOp` records.  Constraints preview them
(:mod:`repro.core.constraints`), the transaction applies them at commit,
and read-your-writes overlays them onto store state.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

from repro.lsdb.columnar import _EMPTY_TAGS
from repro.lsdb.events import EventKind
from repro.lsdb.rollup import EntityState
from repro.merge.deltas import Delta, apply_delta

#: The default payload of a mark: empty and read-only, so no two ops
#: ever share a mutable dict.
_NO_PAYLOAD: Mapping[str, Any] = MappingProxyType({})


class PendingOp(NamedTuple):
    """One buffered write (immutable; a tuple, so building one is a
    single allocation — every transactional write builds one).

    Attributes:
        kind: The event kind this op will become at commit.
        entity_type: Target entity type.
        entity_key: Target entity key.
        payload: Field values (``INSERT``/``SET_FIELDS``) or a
            serialized delta (``DELTA``); empty for marks.
        tags: Tags to stamp on the resulting event.
    """

    kind: EventKind
    entity_type: str
    entity_key: str
    payload: Mapping[str, Any] = _NO_PAYLOAD
    tags: frozenset[str] = _EMPTY_TAGS

    @property
    def entity_ref(self) -> tuple[str, str]:
        """``(entity_type, entity_key)``."""
        return (self.entity_type, self.entity_key)


def preview_state(base: EntityState | None, ops: list[PendingOp]) -> EntityState:
    """The state an entity would have after applying ``ops``.

    Used for constraint checks and read-your-writes before anything is
    durable.  ``base`` is the current store state (``None`` if the
    entity does not exist yet).
    """
    if base is None:
        first = ops[0]
        state = EntityState(first.entity_type, first.entity_key)
    else:
        state = base.copy()
    for op in ops:
        if op.kind is EventKind.INSERT:
            state.fields.update(op.payload)
            state.version_count += 1
        elif op.kind is EventKind.DELTA:
            state.fields = apply_delta(state.fields, Delta.from_payload(op.payload))
        elif op.kind is EventKind.SET_FIELDS:
            state.fields.update(op.payload)
        elif op.kind is EventKind.TOMBSTONE:
            state.deleted = True
        elif op.kind is EventKind.OBSOLETE:
            state.obsolete = True
    return state
