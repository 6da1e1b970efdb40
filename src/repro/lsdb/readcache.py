"""The skew-aware read cache: a watermark-validated snapshot cache.

Paper principle 2.10 (contention concentrates on hot entities) and 2.9
(demand versus supply) say real traffic is skewed: a few entities absorb
most reads.  :class:`ReadCache` serves that skew in front of one store:
a read-through snapshot cache over the rollup, keyed by
``(entity_type, key)``.  Every entry carries an **LSN watermark**: the
head LSN of the entity's log history at fill time.  Validation is one
O(1) probe of the log's per-entity index ("any events since my
watermark?"); a current hit returns the cached folded state without
touching the arena or the live state map.  A *stale* entry may still be
served — but only when its measured age (the age of the oldest event
past the watermark, read from the log's timestamps) fits the caller's
staleness budget, so cache-served reads stamp **honest measured
staleness** and never silently exceed a bound.  Eviction is size-bounded
LRU with a space-saving top-k hot-set tracker pinning the hot set.  Only
a store's own typed reads (:meth:`~repro.lsdb.store.LSDBStore.read` /
``serve``) consult it: every store keeps its rollup incrementally, so a
replication scheme, the warehouse extract and the front door read a
copy's fold directly — one dict probe, which no cache probe in front of
it can beat, and an answer no older than the copy itself.

Invalidation is structural, not temporal: compaction
(:meth:`~repro.lsdb.log.AppendOnlyLog.rewrite_prefix`) rewrites history
without changing the entity head LSN (the compactor reuses the last
summarised LSN), so watermark comparison alone would keep serving
pre-compaction folds.  The log's structure-change subscription and the
store's checkpoint/reducer hooks drop every entry whenever the mapping
from LSNs to folds changes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Optional

from repro.core.consistency import ConsistencyLevel

# ``deliver`` is unused here since the shared ``ReadSurface.read`` does
# the stamping, but the name stays importable from this module: the
# end-to-end harness (benchmarks/e2e) asserts it wraps and restores it.
from repro.core.readpath import ReadSurface, Served, deliver  # noqa: F401
from repro.lsdb.rollup import EntityState

EntityRef = tuple[str, str]


class HotSetTracker:
    """Space-saving top-k frequency sketch over entity refs.

    The classic Metwally et al. *space-saving* summary: at most
    ``capacity`` tracked keys; an untracked key evicts the
    minimum-count entry and inherits its count plus one, so every key
    whose true frequency exceeds ``n / capacity`` is guaranteed to be
    tracked.  Deterministic: ties break on tracking order (dict
    insertion order), never on hashing or randomness.
    """

    __slots__ = ("capacity", "_counts")

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counts: dict[EntityRef, int] = {}

    def touch(self, key: EntityRef) -> None:
        """Record one access to ``key``."""
        counts = self._counts
        count = counts.get(key)
        if count is not None:
            counts[key] = count + 1
            return
        if len(counts) < self.capacity:
            counts[key] = 1
            return
        # The victim is the first minimum in tracking order: one C-level
        # ``min`` over the counts, then a scan that stops at it — no
        # Python callback per tracked key.
        floor = min(counts.values())
        for victim, count in counts.items():
            if count == floor:
                break
        del counts[victim]
        counts[key] = floor + 1

    def is_hot(self, key: EntityRef) -> bool:
        """Whether ``key`` is currently in the tracked top-k."""
        return key in self._counts

    def hot_keys(self) -> list[EntityRef]:
        """Tracked keys, hottest first (count desc, then key — stable)."""
        return sorted(self._counts, key=lambda k: (-self._counts[k], k))

    def __len__(self) -> int:
        return len(self._counts)


class ReadCache(ReadSurface):
    """A read-through, watermark-validated snapshot cache.

    The cache never owns truth: ``head(entity_type, entity_key)`` asks
    the backing surface for the entity's current watermark (the newest
    LSN of its history), ``age(entity_type, entity_key, watermark)``
    measures how old a stale entry is, and ``fetch(entity_type,
    entity_key)`` produces the authoritative current fold on a miss.
    Entries are frozen copies — a hit hands the same object out
    repeatedly; callers must treat it as immutable (the same contract
    as reading the store's live state map).

    Build one with :meth:`over_store` rather than calling the
    constructor directly.

    Args:
        name: Diagnostic/metric label.
        fetch: ``(entity_type, entity_key) -> Optional[EntityState]`` —
            authoritative read.
        head: ``(entity_type, entity_key) -> int`` — the entity's
            current watermark.
        age: ``(entity_type, entity_key, watermark) -> float`` —
            measured age of a fold taken at ``watermark``.
        capacity: Maximum cached entries (LRU beyond this).
        hot_capacity: Top-k size of the hot-set tracker; hot entries are
            pinned against LRU eviction.
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; mirrors
            the plain-int counters as ``cache.{hits,misses,evictions,
            invalidations}`` counters and the ``cache.hot_keys`` gauge,
            labelled ``cache=name``.
        served_by: The ``ReadResult.served_by`` stamp for typed reads.
    """

    def __init__(
        self,
        *,
        name: str = "cache",
        fetch: Callable[[str, str], Optional[EntityState]],
        head: Callable[[str, str], int],
        age: Callable[[str, str, int], float],
        capacity: int = 512,
        hot_capacity: int = 16,
        metrics: Any = None,
        served_by: str = "",
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._fetch = fetch
        self._head = head
        self._age = age
        self.tracker = HotSetTracker(hot_capacity)
        #: ref -> (frozen state or None, watermark), LRU -> MRU order.
        self._entries: "OrderedDict[EntityRef, tuple[Optional[EntityState], int]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.served_by = served_by or f"{name}"
        self.metrics = metrics
        if metrics is not None:
            self._m_hits = metrics.counter("cache.hits", cache=name)
            self._m_misses = metrics.counter("cache.misses", cache=name)
            self._m_evictions = metrics.counter("cache.evictions", cache=name)
            self._m_invalidations = metrics.counter(
                "cache.invalidations", cache=name
            )
            self._g_hot = metrics.gauge("cache.hot_keys", cache=name)
        else:
            self._m_hits = self._m_misses = None
            self._m_evictions = self._m_invalidations = None
            self._g_hot = None

    # ------------------------------------------------------------------ #
    # Construction over concrete surfaces
    # ------------------------------------------------------------------ #

    @classmethod
    def over_store(
        cls,
        store: Any,
        *,
        capacity: int = 512,
        hot_capacity: int = 16,
        metrics: Any = None,
        name: Optional[str] = None,
    ) -> "ReadCache":
        """A cache over an :class:`~repro.lsdb.store.LSDBStore`.

        Watermarks come from the log's O(1) per-entity index
        (:meth:`~repro.lsdb.log.AppendOnlyLog.entity_head_lsn`); stale
        ages from the first event past the watermark, in virtual time.
        Attaches itself (:meth:`LSDBStore.attach_read_cache`), which
        also subscribes the compaction/checkpoint invalidation hooks
        and routes the store's typed reads through the cache.
        """

        log = store.log

        def entity_age(*ref_and_watermark: Any) -> float:
            stamp = log.entity_first_timestamp_after(*ref_and_watermark)
            if stamp is None:
                return 0.0
            return max(0.0, store.now() - stamp)

        cache = cls(
            name=name or f"{store.name}-cache",
            # ``store.get`` is looked up per call: an instance may
            # shadow it after the cache is built (tracing harnesses do).
            fetch=lambda *ref: store.get(*ref),
            head=log.entity_head_lsn,
            age=entity_age,
            capacity=capacity,
            hot_capacity=hot_capacity,
            metrics=metrics if metrics is not None else store.metrics,
            served_by=f"{store.name}+cache",
        )
        store.attach_read_cache(cache)
        return cache

    # ------------------------------------------------------------------ #
    # The cache primitive
    # ------------------------------------------------------------------ #

    def lookup(
        self,
        entity_type: str,
        entity_key: str,
        *,
        budget: Optional[float] = None,
        revalidate: bool = False,
    ) -> tuple[Optional[EntityState], float]:
        """The entity's folded state plus the measured age of that fold.

        * watermark current → hit, age ``0.0`` (the cached fold *is*
          the entity's present state — nothing appended since).
        * watermark behind, ``revalidate=False`` and measured age within
          ``budget`` (``None`` = unbounded) → hit, honest age stamped.
        * otherwise → miss: refresh from the authoritative surface,
          re-watermark, age ``0.0``.

        A read can therefore never observe a fold older than its budget
        — the "zero stale-beyond-bound serves" guarantee
        ``tests/test_claims.py`` checks.
        """
        ref = (entity_type, entity_key)
        self.tracker.touch(ref)
        if self._g_hot is not None:
            self._g_hot.set(len(self.tracker))
        entry = self._entries.get(ref)
        if entry is not None:
            state, watermark = entry
            if watermark == self._head(entity_type, entity_key):
                self._record_hit(ref)
                return state, 0.0
            if not revalidate:
                age = self._age(entity_type, entity_key, watermark)
                if budget is None or age <= budget:
                    self._record_hit(ref)
                    return state, age
        self.misses += 1
        if self._m_misses is not None:
            self._m_misses.inc()
        state = self._fetch(entity_type, entity_key)
        frozen = state.copy() if state is not None else None
        self._install(ref, frozen, self._head(entity_type, entity_key))
        return frozen, 0.0

    def serve(
        self,
        entity_type: str,
        entity_key: str,
        level: ConsistencyLevel,
        *,
        max_staleness: Optional[float] = None,
        site: Optional[str] = None,
    ) -> Served:
        """The read protocol's primitive, served through the cache.

        ``STRONG`` always revalidates (only a watermark-current entry
        counts as a hit; anything else refreshes — staleness 0 by
        construction).  ``BOUNDED_STALENESS`` serves a stale entry only
        within ``max_staleness``; ``EVENTUAL`` and weaker serve any
        cached entry, stamping its honest measured age.
        """
        if level is ConsistencyLevel.STRONG:
            state, age = self.lookup(entity_type, entity_key, revalidate=True)
        elif level is ConsistencyLevel.BOUNDED_STALENESS:
            state, age = self.lookup(entity_type, entity_key, budget=max_staleness)
        else:
            state, age = self.lookup(entity_type, entity_key)
        return state, level, age, self.served_by, ""

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def invalidate(self, entity_type: str, entity_key: str) -> bool:
        """Drop one entry (``True`` if it was cached)."""
        if self._entries.pop((entity_type, entity_key), None) is None:
            return False
        self.invalidations += 1
        if self._m_invalidations is not None:
            self._m_invalidations.inc()
        return True

    def invalidate_all(self, reason: str = "") -> int:
        """Drop every entry — the structural-change hook (compaction,
        checkpoint install, reducer change).  Returns how many entries
        were dropped."""
        dropped = len(self._entries)
        if dropped:
            self._entries.clear()
            self.invalidations += dropped
            if self._m_invalidations is not None:
                self._m_invalidations.inc(dropped)
        return dropped

    def on_structure_change(self) -> None:
        """Log structure-change callback (``rewrite_prefix``): history
        below an entity's head was rewritten, so watermark equality no
        longer implies fold equality — drop everything."""
        self.invalidate_all("structure")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, ref: EntityRef) -> bool:
        return ref in self._entries

    def stats(self) -> dict[str, int]:
        """Plain-int counters (metrics-free introspection)."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hot_tracked": len(self.tracker),
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _record_hit(self, ref: EntityRef) -> None:
        self.hits += 1
        if self._m_hits is not None:
            self._m_hits.inc()
        self._entries.move_to_end(ref)

    def _install(
        self, ref: EntityRef, frozen: Optional[EntityState], watermark: int
    ) -> None:
        entries = self._entries
        entries[ref] = (frozen, watermark)
        entries.move_to_end(ref)
        while len(entries) > self.capacity:
            self._evict()

    def _evict(self) -> None:
        entries = self._entries
        is_hot = self.tracker.is_hot
        victim = None
        for ref in entries:  # LRU -> MRU
            if not is_hot(ref):
                victim = ref
                break
        if victim is None:
            # Everything cached is hot: fall back to plain LRU.
            victim = next(iter(entries))
        del entries[victim]
        self.evictions += 1
        if self._m_evictions is not None:
            self._m_evictions.inc()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReadCache({self.name!r}, entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
