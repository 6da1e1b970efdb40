"""Read-only warehouse extract.

Paper section 3.1: "For read-only warehousing requirements, periodic
extract from an OLTP system may suffice."  The
:class:`WarehouseExtract` copies the rolled-up state of an OLTP store
into a frozen read model on a period; queries run against the last
extract and report how stale it is.  This is the weakest — and cheapest
— consistency level (``EXTRACT``, :mod:`repro.core.consistency`);
``Cluster.read`` serves an ``EXTRACT`` request from the cluster's
warehouse when it has one and no front door.
"""

from __future__ import annotations

from typing import Optional

from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import ReadSurface, Served
from repro.lsdb.rollup import EntityState
from repro.lsdb.store import LSDBStore
from repro.sim.scheduler import Simulator


class WarehouseExtract(ReadSurface):
    """Periodic full extract of an OLTP store's current state.

    Args:
        sim: The simulator.
        source: The OLTP store to extract from.
        interval: Extraction period (staleness bound: a query is at most
            ``interval`` behind the OLTP system).
        max_batch: Flow control for the incremental feed: at most this
            many OLTP events are folded per extract round (one frame of
            the feed).  A backlog larger than the frame waits for the
            next round and shows up in :attr:`lag_events` — bounded work
            per round instead of unbounded catch-up stalls — and in
            :attr:`staleness`, which then counts from the first row left
            behind.  ``None`` folds the whole backlog at once (the legacy
            behaviour).
    """

    #: One level: every answer comes from the last extract.
    levels = (ConsistencyLevel.EXTRACT,)

    def __init__(
        self,
        sim: Simulator,
        source: LSDBStore,
        interval: float = 100.0,
        incremental: bool = True,
        max_batch: Optional[int] = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.sim = sim
        self.metrics = sim.metrics
        self.source = source
        self.interval = interval
        self.incremental = incremental
        self.max_batch = max_batch
        self.extracted_at: float = -1.0
        #: When the extract started to be behind its source: the extract
        #: time, or the first row a batched extract left behind.
        self._behind_since: float = -1.0
        self.extracted_lsn: int = 0
        self.extracts_taken = 0
        self.events_applied_incrementally = 0
        self.feed_frames = 0
        self._snapshot: dict[tuple[str, str], EntityState] = {}
        self._g_lag = (
            sim.metrics.gauge("warehouse.lag_events")
            if sim.metrics is not None
            else None
        )
        self._schedule_next()

    def _schedule_next(self) -> None:
        self.sim.schedule(self.interval, self._extract, label="warehouse-extract")

    def _extract(self) -> None:
        now = self.sim.now
        behind_since = now
        if self.incremental and self.extracts_taken > 0:
            # Incremental extract: fold only the OLTP events appended
            # since the last extract over the previous snapshot — the
            # cost is proportional to the change, not the database.
            # Correct because rollup(prefix) ++ fold(suffix) ==
            # rollup(prefix + suffix) (the snapshot identity; see
            # tests/test_rollup_properties.py).
            suffix = self.source.events_since(self.extracted_lsn)
            if self.max_batch is not None and len(suffix) > self.max_batch:
                # One frame of the feed per round; the remainder stays
                # visible as lag until the next round drains it, and the
                # extract misses writes from the remainder's first row on.
                first_left = suffix.rows[self.max_batch]
                behind_since = min(now, suffix.arena.timestamps[first_left])
                suffix = suffix[: self.max_batch]
            self._snapshot = self.source.rollup.fold(suffix, initial=self._snapshot)
            self.events_applied_incrementally += len(suffix)
            if suffix:
                self.feed_frames += 1
            self.extracted_lsn = (
                suffix[-1].lsn if suffix else self.source.log.head_lsn
            )
        else:
            self._snapshot = self.source.current_state()
            self.extracted_lsn = self.source.log.head_lsn
        self.extracted_at = now
        self._behind_since = behind_since
        self.extracts_taken += 1
        if self._g_lag is not None:
            self._g_lag.set(self.lag_events)
        self._schedule_next()

    # ------------------------------------------------------------------ #
    # Read-only query surface
    # ------------------------------------------------------------------ #

    def get(self, entity_type: str, entity_key: str) -> Optional[EntityState]:
        """Entity state as of the last extract (``None`` before the
        first extract or for unknown entities)."""
        return self._snapshot.get((entity_type, entity_key))

    def serve(
        self,
        entity_type: str,
        entity_key: str,
        level: ConsistencyLevel,
        *,
        site: Optional[str] = None,
    ) -> Served:
        """The read protocol's primitive (see :mod:`repro.core.readpath`).

        A warehouse has exactly one consistency level — ``EXTRACT`` —
        so every answer comes from the last extract regardless of the
        level asked for, stamped with the extract's measured staleness:
        zero when the feed has drained (:attr:`lag_events` is zero, the
        snapshot *is* current), otherwise :attr:`staleness`.  The state
        is the extract's own frozen entry: read-only, like every served
        fold.
        """
        state = self._snapshot.get((entity_type, entity_key))
        staleness = 0.0 if self.lag_events == 0 else self.staleness
        return state, ConsistencyLevel.EXTRACT, staleness, "warehouse", ""

    def scan(self, entity_type: str) -> list[EntityState]:
        """All live entities of a type as of the last extract."""
        return [
            state
            for (etype, _), state in self._snapshot.items()
            if etype == entity_type and state.live
        ]

    def aggregate(self, entity_type: str, field_name: str) -> float:
        """Sum of one numeric field over live entities (the OLAP-style
        rollup a warehouse exists for)."""
        return sum(
            state.get(field_name, 0) or 0 for state in self.scan(entity_type)
        )

    @property
    def staleness(self) -> float:
        """Virtual time since the extract started to be behind its
        source (``inf`` before the first): since the last extract, or
        since the first row a batched extract left for the next round."""
        if self.extracted_at < 0:
            return float("inf")
        return self.sim.now - self._behind_since

    @property
    def lag_events(self) -> int:
        """OLTP events not reflected in the current extract."""
        return self.source.log.head_lsn - self.extracted_lsn
