"""Rollup checkpoints: O(delta) recovery for the LSDB.

Without checkpoints, every cold start of the current-state map —
:meth:`~repro.lsdb.store.LSDBStore.rebuild_cache`, a promoted backup
warming up, a brand-new replica joining — replays the **entire** log
from LSN 0.  That is the paper's section 3.1 rollup done the slow way:
correct, but linear in history, and history only grows (principle 2.7:
nothing is ever erased).

A :class:`Checkpoint` freezes the four things the incremental state is
made of, all consistent **as of one LSN**:

* the rolled-up ``states`` map (deep-enough copies, never aliased with
  the live map),
* the per-type ref order (so type-scoped scans keep their first-event
  iteration order),
* the per-origin sequence watermarks (the version vector — what the
  store had applied from every origin, which is exactly what replication
  needs to resume),
* per-secondary-index snapshots (buckets + applied LSN), so indexes
  also restart warm instead of re-folding their type's whole history.

Recovery is then *checkpoint + suffix*: restore the frozen maps and fold
only ``log.since(checkpoint.lsn)`` — O(delta since the checkpoint), not
O(log).  Because the incremental state map **is** the fold of the log,
the restored map is byte-identical to the one that was never torn down
(including audit counters like ``event_count``), an invariant the test
suite pins.

The checkpoint is also where time travel starts:
:meth:`~repro.lsdb.store.LSDBStore.state_as_of` folds the log between
the checkpoint and the target LSN over it (and folds from scratch below
it).  It is the store's one frozen fold.

Invalidation is the half that makes this safe.  A checkpoint caches an
*interpretation* of the log, so anything that changes the interpretation
must discard it: installing a new reducer or applying a schema migration
goes through :meth:`~repro.lsdb.store.LSDBStore.reinterpret`, and
compaction (which rewrites the prefix under the checkpoint) calls
:meth:`CheckpointManager.on_compaction`; both end in
:meth:`CheckpointManager.invalidate`.  Compaction immediately re-takes a
fresh checkpoint when the policy asks for it, preserving the invariant
that a live checkpoint never predates the compaction boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Optional

from repro.lsdb.rollup import StateMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lsdb.store import LSDBStore


@dataclass(frozen=True)
class CheckpointPolicy:
    """When the manager takes checkpoints automatically.

    Attributes:
        every_events: Take a checkpoint after this many appends
            (0 disables count-triggered checkpoints).
        on_compaction: Re-checkpoint right after a compaction (also the
            moment the pre-compaction checkpoint is discarded).
    """

    every_events: int = 0
    on_compaction: bool = True

    def __post_init__(self) -> None:
        if self.every_events < 0:
            raise ValueError(
                f"every_events must be >= 0, got {self.every_events}"
            )


@dataclass
class IndexSnapshot:
    """Frozen state of one secondary index at checkpoint time."""

    applied_lsn: int
    buckets: dict[Hashable, set[str]]
    states: StateMap


@dataclass
class Checkpoint:
    """Everything needed to rebuild the store's derived state from one
    LSN forward.  Immutable by convention: restore paths copy out of it,
    never into it."""

    lsn: int
    taken_at: float
    states: StateMap
    type_refs: dict[str, list[tuple[str, str]]]
    version_vector: dict[str, int]
    origin_seq: int
    index_snapshots: dict[tuple[str, str], IndexSnapshot] = field(
        default_factory=dict
    )

    @staticmethod
    def capture(store: "LSDBStore") -> "Checkpoint":
        """Freeze ``store``'s derived state as of its current head LSN."""
        return Checkpoint(
            lsn=store.log.head_lsn,
            taken_at=store.now(),
            states={ref: state.copy() for ref, state in store.states_view().items()},
            type_refs={
                entity_type: list(refs)
                for entity_type, refs in store.type_refs_view().items()
            },
            version_vector=store.version_vector.to_dict(),
            origin_seq=store.origin_seq,
            index_snapshots={
                key: index.snapshot() for key, index in store.indexes_view().items()
            },
        )

    @property
    def entity_count(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class RecoveryReport:
    """What a checkpoint-assisted rebuild actually did."""

    used_checkpoint: bool
    checkpoint_lsn: int
    events_replayed: int
    indexes_restored: int


class CheckpointManager:
    """Owns the store's latest checkpoint and the policy that refreshes it.

    Only the most recent checkpoint is retained: recovery always wants
    the newest one, and keeping a history would hold every superseded
    state map alive in a system whose log already is the history.

    Args:
        store: The owning store.
        policy: When to auto-checkpoint; manual :meth:`take` always works.
    """

    def __init__(self, store: "LSDBStore", policy: Optional[CheckpointPolicy] = None):
        self.store = store
        self.policy = policy if policy is not None else CheckpointPolicy()
        self._latest: Optional[Checkpoint] = None
        self._appends_since = 0
        self.taken = 0
        self.invalidations = 0
        metrics = store.metrics
        if metrics is not None:
            self._m_taken = metrics.counter("checkpoint.taken", origin=store.origin)
            self._m_invalidated = metrics.counter(
                "checkpoint.invalidated", origin=store.origin
            )
            self._g_lsn = metrics.gauge("checkpoint.lsn", origin=store.origin)
        else:
            self._m_taken = self._m_invalidated = self._g_lsn = None
        # Cadence metering only: the counts channel never materializes
        # events, so bulk frame applies stay columnar end to end.
        store.log.subscribe_counts(self._on_appends)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _on_appends(self, count: int) -> None:
        if not self.policy.every_events:
            return
        self._appends_since += count
        if self._appends_since >= self.policy.every_events:
            self.take()

    def take(self) -> Checkpoint:
        """Capture a fresh checkpoint (replacing any previous one)."""
        checkpoint = Checkpoint.capture(self.store)
        self._latest = checkpoint
        self._appends_since = 0
        self.taken += 1
        if self._m_taken is not None:
            self._m_taken.inc()
            self._g_lsn.set(checkpoint.lsn)
        return checkpoint

    def latest(self) -> Optional[Checkpoint]:
        """The newest valid checkpoint, or ``None``."""
        return self._latest

    def invalidate(self) -> None:
        """Discard the checkpoint because the log's *interpretation*
        changed (new reducer, schema migration, compaction rewrite) —
        restoring it would resurrect the stale reading of history."""
        if self._latest is None:
            return
        self._latest = None
        self.invalidations += 1
        if self._m_invalidated is not None:
            self._m_invalidated.inc()
            self._g_lsn.set(0)

    def on_compaction(self) -> None:
        """Compaction hook: the old checkpoint's suffix no longer exists
        in its original form, so drop it — and immediately re-take when
        the policy wants warm recovery after compactions."""
        self.invalidate()
        if self.policy.on_compaction:
            self.take()

    @property
    def delta_events(self) -> int:
        """How many events recovery would replay right now."""
        if self._latest is None:
            return len(self.store.log)
        return self.store.log.count_between(
            self._latest.lsn, self.store.log.head_lsn
        )
