"""Asynchronously maintained secondary indexes.

Principle 2.3 (after Helland): "inconsistency of secondary indexes is
necessary for highly scalable systems".  A :class:`SecondaryIndex` is
therefore *not* updated on the transaction's append path; it records how
far into the log it has applied (``applied_lsn``) and catches up when
:meth:`refresh` is called (by a background task in the simulator, or
manually in tests).  Between appends and refreshes the index is stale —
queries can miss new entities or return recently deleted ones — and the
staleness is observable and measurable (experiment E2's probe uses the
same mechanism).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional

from repro.lsdb.columnar import EventSlice
from repro.lsdb.log import AppendOnlyLog
from repro.lsdb.rollup import EntityRef, Rollup, StateMap


class SecondaryIndex:
    """An equality index on one field of one entity type.

    Args:
        log: The log whose events feed the index.
        rollup: The rollup defining field semantics (deltas etc.).
        entity_type: The indexed entity type.
        field_name: The indexed field.
        tracer: Optional :class:`repro.obs.Tracer`; each refreshed event
            then gets an ``index.refresh`` span chained (via
            ``span_of``) to the span that stored the event, making the
            staleness window visible as the gap between parent and
            child span times.
        metrics: Optional :class:`repro.obs.MetricsRegistry` for the
            refresh counter and lag gauge (labelled type.field).
        node: Node/replica name stamped on refresh spans.
        span_of: Callable mapping an event's ``(origin, origin_seq)``
            identity to the span id it was stored under (the owning
            store provides this).

    Example:
        >>> # index lookups reflect only refreshed state:
        >>> # store.insert(...); index.lookup(v) may be empty until
        >>> # index.refresh() is called.
    """

    def __init__(
        self,
        log: AppendOnlyLog,
        rollup: Rollup,
        entity_type: str,
        field_name: str,
        tracer=None,
        metrics=None,
        node: str = "",
        span_of: Optional[Callable[[Any], Optional[str]]] = None,
    ):
        self.log = log
        self.rollup = rollup
        self.entity_type = entity_type
        self.field_name = field_name
        self.applied_lsn = 0
        self._states: StateMap = {}
        self._buckets: dict[Hashable, set[str]] = {}
        self.tracer = tracer
        self.node = node
        self._span_of = span_of
        if metrics is not None:
            label = f"{entity_type}.{field_name}"
            self._m_refreshed = metrics.counter("index.refreshed", index=label)
            self._g_lag = metrics.gauge("index.lag", index=label)
        else:
            self._m_refreshed = self._g_lag = None

    def refresh(self, up_to_lsn: Optional[int] = None) -> int:
        """Apply log events appended since the last refresh.

        Args:
            up_to_lsn: Stop at this LSN (defaults to the log head);
                useful for scripting a fixed index lag in experiments.

        Returns:
            The number of events applied.
        """
        target = self.log.head_lsn if up_to_lsn is None else up_to_lsn
        applied = self.log.count_between(self.applied_lsn, target)
        if applied == 0:
            if self._g_lag is not None:
                self._g_lag.set(self.lag)
            return 0
        # Only this type's events need folding; the typed feed skips the
        # rest instead of filtering the whole suffix event by event.
        # Rows fold straight from the arena, traced or not: tracing only
        # opens and closes a span per row, read from the same columns.
        tracer = self.tracer
        feed = self.log.for_type_since(self.entity_type, self.applied_lsn, target)
        arena = feed.arena
        for row in feed.rows:
            self._apply_row(arena, row)
            if tracer is not None:
                identity = (arena.origin_at(row), arena.origin_seqs[row])
                parent = self._span_of(identity) if self._span_of else None
                tracer.end_span(
                    tracer.start_span(
                        "index.refresh",
                        parent=parent or arena.span_ids.get(row) or None,
                        node=self.node,
                        field=f"{self.entity_type}.{self.field_name}",
                        lsn=arena.lsns[row],
                    )
                )
        self.applied_lsn = self.log.last_lsn_at_or_below(target)
        if self._m_refreshed is not None:
            self._m_refreshed.inc(applied)
        if self._g_lag is not None:
            self._g_lag.set(self.lag)
        return applied

    def _apply_row(self, arena, row: int) -> None:
        """Fold one arena row into the index's state map and move the
        entity's key between buckets."""
        ref: EntityRef = arena.ref_tuples[arena.ref_ids[row]]
        old_state = self._states.get(ref)
        old_value = old_state.get(self.field_name) if old_state else None
        old_live = old_state.live if old_state else False
        # The index exclusively owns its state map, so the in-place fold
        # is safe (old value/liveness are captured above).
        self.rollup.fold_slice_into(self._states, EventSlice(arena, (row,)))
        new_state = self._states[ref]
        new_value = new_state.get(self.field_name)
        new_live = new_state.live
        if old_live and (not new_live or new_value != old_value):
            bucket = self._buckets.get(old_value)
            if bucket is not None:
                bucket.discard(ref[1])
                if not bucket:
                    del self._buckets[old_value]
        if new_live and (not old_live or new_value != old_value):
            self._buckets.setdefault(new_value, set()).add(ref[1])

    def lookup(self, value: Any) -> set[str]:
        """Entity keys whose indexed field equals ``value`` *as of the
        last refresh* — staleness is part of the contract."""
        return set(self._buckets.get(value, set()))

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #

    def snapshot(self):
        """Freeze the index (buckets, fold states, applied LSN) for a
        store checkpoint; the copies share nothing mutable with the
        live index."""
        from repro.lsdb.checkpoint import IndexSnapshot

        return IndexSnapshot(
            applied_lsn=self.applied_lsn,
            buckets={value: set(keys) for value, keys in self._buckets.items()},
            states={ref: state.copy() for ref, state in self._states.items()},
        )

    def restore(self, snapshot) -> None:
        """Reinstall a frozen snapshot (copying out of it, so the same
        checkpoint can be restored more than once)."""
        self.applied_lsn = snapshot.applied_lsn
        self._buckets = {
            value: set(keys) for value, keys in snapshot.buckets.items()
        }
        self._states = {
            ref: state.copy() for ref, state in snapshot.states.items()
        }

    def reset(self) -> None:
        """Forget everything; the next refresh re-folds from LSN 0."""
        self.applied_lsn = 0
        self._buckets = {}
        self._states = {}

    @property
    def lag(self) -> int:
        """How many LSNs the index is behind the log head."""
        return self.log.head_lsn - self.applied_lsn

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SecondaryIndex({self.entity_type}.{self.field_name}, "
            f"applied={self.applied_lsn}, lag={self.lag})"
        )
