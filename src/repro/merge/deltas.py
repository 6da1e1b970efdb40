"""Commutative field deltas — SAP's "commutative update strategy".

Principle 2.7 notes that SAP handles many updates as *deltas* ("+5 to
quantity on hand") rather than overwrites ("quantity is now 12"), and
principle 2.8 explains why: a delta describes what a transaction *did*,
so concurrent transactions compose by simple addition, with no lost
updates and no coordination.  This module provides:

* :class:`Delta` — an immutable bundle of per-field adjustments.
* :func:`apply_delta` — fold a delta into a plain ``dict`` state.
* :func:`compose` — combine deltas into one (order-independent).

Deltas are also the payload of ``DELTA`` events in the log-structured
database (:mod:`repro.lsdb`), which is how "the current state is a rollup
aggregation of the log" (paper section 3.1) ends up concrete: the rollup
just applies deltas in log order, and because they commute, *any* order
that contains the same deltas yields the same state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping


@dataclass(frozen=True)
class Delta:
    """An immutable set of commutative field adjustments.

    Attributes:
        numeric: Field name -> signed amount to add.
        set_adds: Field name -> elements to insert into a set field.
        set_removes: Field name -> elements to mark removed from a set
            field (tombstone semantics: a remove beats a concurrent add
            of the same element only if applied after it in the rollup;
            for true add-wins use :class:`repro.merge.sets.ORSet`).

    Example:
        >>> delta = Delta(numeric={"quantity": -3})
        >>> apply_delta({"quantity": 10}, delta)
        {'quantity': 7}
    """

    numeric: Mapping[str, float] = field(default_factory=dict)
    set_adds: Mapping[str, frozenset] = field(default_factory=dict)
    set_removes: Mapping[str, frozenset] = field(default_factory=dict)

    @staticmethod
    def add(field_name: str, amount: float) -> "Delta":
        """A delta adjusting one numeric field by ``amount``."""
        return Delta(numeric={field_name: amount})

    @staticmethod
    def insert(field_name: str, *elements: Any) -> "Delta":
        """A delta inserting ``elements`` into one set field."""
        return Delta(set_adds={field_name: frozenset(elements)})

    @staticmethod
    def discard(field_name: str, *elements: Any) -> "Delta":
        """A delta removing ``elements`` from one set field."""
        return Delta(set_removes={field_name: frozenset(elements)})

    def invert(self) -> "Delta":
        """The compensating delta: applying ``d`` then ``d.invert()``
        restores every numeric field (set ops swap add/remove).

        This is what makes delta-recorded transactions cheap to
        compensate (principles 2.9 and 2.10): the infrastructure can
        undo a business action mechanically.
        """
        return Delta(
            numeric={name: -amount for name, amount in self.numeric.items()},
            set_adds=dict(self.set_removes),
            set_removes=dict(self.set_adds),
        )

    def is_empty(self) -> bool:
        """Whether the delta adjusts nothing."""
        return not (self.numeric or self.set_adds or self.set_removes)

    def fields(self) -> set[str]:
        """All field names this delta touches."""
        return set(self.numeric) | set(self.set_adds) | set(self.set_removes)

    def to_payload(self) -> dict[str, Any]:
        """A JSON-friendly representation for log events.

        Every call returns fresh dicts (the log stores payloads by
        reference); empty set maps skip their comprehension, which is
        the common numeric-only case on every delta write.
        """
        set_adds, set_removes = self.set_adds, self.set_removes
        return {
            "numeric": dict(self.numeric),
            "set_adds": (
                {name: sorted(vals) for name, vals in set_adds.items()}
                if set_adds
                else {}
            ),
            "set_removes": (
                {name: sorted(vals) for name, vals in set_removes.items()}
                if set_removes
                else {}
            ),
        }

    @staticmethod
    def from_payload(payload: Mapping[str, Any]) -> "Delta":
        """Inverse of :meth:`to_payload`."""
        return Delta(
            numeric=dict(payload.get("numeric", {})),
            set_adds={
                name: frozenset(vals)
                for name, vals in payload.get("set_adds", {}).items()
            },
            set_removes={
                name: frozenset(vals)
                for name, vals in payload.get("set_removes", {}).items()
            },
        )


def apply_delta(state: Mapping[str, Any], delta: Delta) -> dict[str, Any]:
    """Return a new state dict with ``delta`` folded in.

    Numeric fields default to 0 when absent; set fields default to an
    empty frozenset.  The input mapping is never mutated.
    """
    result: dict[str, Any] = dict(state)
    for name, amount in delta.numeric.items():
        result[name] = result.get(name, 0) + amount
    for name, additions in delta.set_adds.items():
        current = result.get(name, frozenset())
        result[name] = frozenset(current) | additions
    for name, removals in delta.set_removes.items():
        current = result.get(name, frozenset())
        result[name] = frozenset(current) - removals
    return result


def compose(deltas: Iterable[Delta]) -> Delta:
    """Combine many deltas into one equivalent delta.

    For numeric fields composition is exact and order-independent
    (addition commutes).  For set fields, composition applies adds and
    removes of *later* deltas over earlier ones; two deltas touching the
    same set element with opposite operations do not commute, and callers
    who care should keep such operations on separate elements (the
    :class:`repro.merge.sets.ORSet` type handles the general case).
    """
    numeric: dict[str, float] = {}
    set_adds: dict[str, set] = {}
    set_removes: dict[str, set] = {}
    for delta in deltas:
        for name, amount in delta.numeric.items():
            numeric[name] = numeric.get(name, 0) + amount
        for name, additions in delta.set_adds.items():
            set_adds.setdefault(name, set()).update(additions)
            set_removes.get(name, set()).difference_update(additions)
        for name, removals in delta.set_removes.items():
            set_removes.setdefault(name, set()).update(removals)
            set_adds.get(name, set()).difference_update(removals)
    return Delta(
        numeric={name: amount for name, amount in numeric.items() if amount != 0},
        set_adds={
            name: frozenset(vals) for name, vals in set_adds.items() if vals
        },
        set_removes={
            name: frozenset(vals) for name, vals in set_removes.items() if vals
        },
    )


def numeric_only(delta: Delta) -> bool:
    """Whether ``delta`` touches only numeric fields (and therefore
    commutes exactly with every other numeric-only delta)."""
    return not (delta.set_adds or delta.set_removes)
