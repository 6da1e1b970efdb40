"""Transactions: solipsistic commits and principled procrastination.

This module implements the paper's transaction model:

* **Solipsistic mode** (principle 2.10): a transaction acts on its local
  view "without considering other local transactions" — no locks, no
  validation, commit always succeeds; conflicts are left to the
  end-to-end resolution infrastructure (:mod:`repro.core.conflict`,
  convergent rollup, compensation).
* **Optimistic / try-lock modes**: the classical baselines (backward
  validation; non-blocking logical-lock acquisition) so experiments can
  measure what solipsism buys.
* **The SAP deferred-update model** (principle 2.3): "a transaction
  [completes] when a descriptor listing pending actions has been
  committed to the database; the actions themselves are performed after
  control has returned to the user.  Logical locks are held until the
  actions have completed, but these prevent access by other users, not
  the user who performed the transaction."  Commit appends the primary
  events plus a durable descriptor entity, acknowledges the user, then
  runs the deferred actions asynchronously under logical locks.
  ``UpdateMode.SYNCHRONOUS`` is the alternative the paper also supports:
  actions run before the acknowledgement — slower, but no
  read-your-writes staleness window.
* **The isolation spectrum** (:class:`IsolationLevel`): the middle
  ground the paper argues for.  Between solipsistic commits and
  serializable OCC sit *snapshot isolation* (``SNAPSHOT``: a consistent
  snapshot at ``begin()``, first-committer-wins write-write validation
  at commit) and *non-monotonic snapshot isolation* (``NMSI``, after
  Ardekani/Sutra/Preguiça/Shapiro): snapshots lose monotonicity —
  a transaction beginning at one site sees site-local commits
  immediately but remote commits only after ``propagation_lag`` —
  while commit-time validation is still global, so independent
  transactions may observe long-fork snapshots yet lost updates remain
  impossible.  Snapshots are expressed as vector clocks over per-site
  commit sequences (:mod:`repro.merge.clock`), so "two transactions
  observed incomparable states" is literally
  ``VectorClock.concurrent_with``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.core.constraints import ConstraintManager, Violation
from repro.core.ops import PendingOp, preview_state
from repro.errors import LockUnavailable, TransactionAborted, ValidationFailed
from repro.locks.logical import LockMode, LogicalLockManager
from repro.locks.optimistic import OCCValidator
from repro.lsdb.columnar import _EMPTY_TAGS, EventSlice
from repro.lsdb.events import EventKind, LogEvent
from repro.lsdb.rollup import EntityState
from repro.lsdb.store import LSDBStore
from repro.merge.clock import VectorClock, VersionVector
from repro.merge.deltas import Delta
from repro.queues.reliable import ReliableQueue
from repro.queues.transactional import TransactionalOutbox
from repro.sim.scheduler import Simulator

#: Entity type of the durable pending-actions descriptor (the SAP model's
#: commit record).
DESCRIPTOR_TYPE = "__tx_descriptor__"


class CCMode(enum.Enum):
    """Concurrency-control discipline of a transaction."""

    SOLIPSISTIC = "solipsistic"
    OPTIMISTIC = "optimistic"
    TRY_LOCK = "try_lock"


class UpdateMode(enum.Enum):
    """When deferred actions run relative to the user acknowledgement."""

    DEFERRED = "deferred"
    SYNCHRONOUS = "synchronous"


class IsolationLevel(enum.Enum):
    """A point on the consistency spectrum a transaction runs at.

    Ordered weakest to strongest (see :data:`ISOLATION_SPECTRUM`):

    * ``SOLIPSISTIC`` — live reads, no validation; commits always
      succeed (principle 2.10).  Admits lost updates.
    * ``NMSI`` — snapshot reads with per-site visibility: a commit is
      visible at its own site immediately and elsewhere only after the
      manager's ``propagation_lag``; write-write validation is global.
      Admits long forks and non-monotonic snapshots, forbids lost
      updates.
    * ``SNAPSHOT`` — classic SI: a consistent snapshot of everything
      committed at ``begin()``, first-committer-wins write-write
      validation.  Admits write skew, forbids lost updates and long
      forks.
    * ``SERIALIZABLE`` — OCC backward validation over the read set;
      admits no anomaly the harness knows.
    """

    SOLIPSISTIC = "solipsistic"
    NMSI = "nmsi"
    SNAPSHOT = "snapshot"
    SERIALIZABLE = "serializable"

    @property
    def rank(self) -> int:
        """Position on the spectrum (0 = weakest)."""
        return ISOLATION_SPECTRUM.index(self)

    def at_least(self, other: "IsolationLevel") -> bool:
        """Whether this level is at least as strong as ``other``."""
        return self.rank >= other.rank


#: The mode lattice, weakest to strongest.  On a single serialization
#: unit this is a chain; the interesting structure is which anomalies
#: each rung admits (see ``repro.isolation.scorecard.THEORY``).
ISOLATION_SPECTRUM: tuple[IsolationLevel, ...] = (
    IsolationLevel.SOLIPSISTIC,
    IsolationLevel.NMSI,
    IsolationLevel.SNAPSHOT,
    IsolationLevel.SERIALIZABLE,
)

#: Levels whose reads come from a begin-time snapshot instead of the
#: live rollup.
SNAPSHOT_LEVELS = frozenset({IsolationLevel.SNAPSHOT, IsolationLevel.NMSI})

#: IsolationLevel -> the concurrency-control discipline implementing it.
#: Snapshot levels run lock-free (their validation is first-committer-
#: wins at commit); serializable rides the OCC validator.
_CC_FOR_LEVEL = {
    IsolationLevel.SOLIPSISTIC: CCMode.SOLIPSISTIC,
    IsolationLevel.NMSI: CCMode.SOLIPSISTIC,
    IsolationLevel.SNAPSHOT: CCMode.SOLIPSISTIC,
    IsolationLevel.SERIALIZABLE: CCMode.OPTIMISTIC,
}


@dataclass(frozen=True)
class CommittedTx:
    """The commit record the isolation machinery keeps per transaction.

    Attributes:
        tx_id: The committed transaction.
        site: Where it committed (visibility origin for NMSI).
        seq: Its position in the site's commit sequence (the component
            the site's entry in a snapshot vector counts up to).
        committed_at: Virtual commit time (drives NMSI propagation).
        write_refs: Entity refs it wrote (first-committer-wins input).
    """

    tx_id: str
    site: str
    seq: int
    committed_at: float
    write_refs: frozenset[tuple[str, str]]


@dataclass
class DeferredAction:
    """A secondary update performed after (or at) commit.

    Attributes:
        name: Diagnostic name, recorded in the descriptor.
        run: Callable applying the action to the store (update an
            aggregate, refresh an index, ...).
        cost: Virtual time the action occupies.
    """

    name: str
    run: Callable[[LSDBStore], None]
    cost: float = 1.0


@dataclass
class CommitReceipt:
    """What the user learns from a commit attempt.

    Attributes:
        tx_id: The transaction id.
        committed: Whether the transaction committed.
        reason: Abort reason ("" when committed).
        submitted_at: Virtual time ``commit()`` was called.
        acked_at: Virtual time control returns to the user.  In deferred
            mode this precedes :attr:`actions_done_at`; the gap is the
            read-your-writes staleness window experiment E2 measures.
        actions_done_at: Virtual time the last deferred action applied.
        events: Log events the transaction appended — a lazy view of
            the appended arena rows that reads like a list (events
            materialize on access).
        violations: Managed constraint violations recorded at commit.
        isolation: The :class:`IsolationLevel` value the transaction ran
            at ("" for plain :class:`CCMode` transactions).
        site: The site the transaction ran at ("" when untracked).
        began_at: Virtual time ``begin()`` was called.
        snapshot_lsn: Store head LSN the snapshot was taken at (-1 when
            the transaction did not run at an isolation level).
        snapshot_txids: Committed transactions visible in the snapshot,
            sorted (empty for live-read levels and plain transactions).
        snapshot_vector: Per-site commit-sequence vector of the snapshot
            (``None`` when not tracked).  Two receipts with
            ``concurrent_with`` vectors witnessed a long fork.
    """

    tx_id: str
    committed: bool
    reason: str = ""
    submitted_at: float = 0.0
    acked_at: float = 0.0
    actions_done_at: float = 0.0
    events: Sequence[LogEvent] = ()
    violations: list[Violation] = field(default_factory=list)
    isolation: str = ""
    site: str = ""
    began_at: float = 0.0
    snapshot_lsn: int = -1
    snapshot_txids: tuple[str, ...] = ()
    snapshot_vector: Optional[VectorClock] = None

    @property
    def response_time(self) -> float:
        """User-perceived latency of the commit."""
        return self.acked_at - self.submitted_at

    @property
    def staleness_window(self) -> float:
        """How long committed-but-unapplied secondary updates linger."""
        return max(0.0, self.actions_done_at - self.acked_at)

    @property
    def snapshot_age(self) -> float:
        """How old the begin-time snapshot was when commit was
        submitted — the window another transaction had to sneak a
        conflicting write in (0 for plain transactions)."""
        return max(0.0, self.submitted_at - self.began_at)


class Transaction:
    """One open transaction: buffered ops, reads, events, actions.

    Obtained from :meth:`TransactionManager.begin`; not constructed
    directly.
    """

    __slots__ = (
        "manager",
        "tx_id",
        "mode",
        "isolation",
        "site",
        "ops",
        "actions",
        "read_set",
        "outbox",
        "begun_at",
        "finished",
        "snapshot_lsn",
        "snapshot_txids",
        "snapshot_vector",
    )

    def __init__(
        self,
        manager: "TransactionManager",
        tx_id: str,
        mode: CCMode,
        isolation: Optional[IsolationLevel] = None,
        site: str = "",
    ):
        self.manager = manager
        self.tx_id = tx_id
        self.mode = mode
        self.isolation = isolation
        self.site = site or manager.default_site
        self.ops: list[PendingOp] = []
        self.actions: list[DeferredAction] = []
        self.read_set: set[str] = set()
        self.outbox: Optional[TransactionalOutbox] = (
            TransactionalOutbox(manager.queue, tx_id)
            if manager.queue is not None
            else None
        )
        sim = manager.sim
        self.begun_at = sim.now if sim is not None else 0.0
        self.finished = False
        #: Snapshot metadata (populated for any isolation level, so
        #: receipts are uniform across the spectrum; only snapshot
        #: levels *read* through it).
        self.snapshot_lsn = -1
        self.snapshot_txids: frozenset[str] = frozenset()
        self.snapshot_vector: Optional[VectorClock] = None
        if isolation is not None:
            self.snapshot_lsn = manager.store.log.head_lsn
            self.snapshot_txids, self.snapshot_vector = manager._snapshot_for(
                self.site, self.begun_at, isolation
            )
        if mode is CCMode.OPTIMISTIC:
            manager.occ.begin(tx_id)

    # ------------------------------------------------------------------ #
    # Reads (read-your-writes within the transaction)
    # ------------------------------------------------------------------ #

    def read(self, entity_type: str, entity_key: str) -> Optional[EntityState]:
        """Read an entity, overlaying this transaction's pending writes.

        Records the read for optimistic validation.  At a snapshot
        level the answer comes from the begin-time snapshot (the
        visible prefix of the entity's history); otherwise it is the
        *local replica's* current state, nothing more — the subjective
        framing of paper section 1.
        """
        self._check_open()
        self.read_set.add(f"{entity_type}/{entity_key}")
        if self.isolation in SNAPSHOT_LEVELS:
            base = self.manager._snapshot_read(self, entity_type, entity_key)
        else:
            base = self.manager.store.get(entity_type, entity_key)
        own_ops = [op for op in self.ops if op.entity_ref == (entity_type, entity_key)]
        if not own_ops:
            return base
        return preview_state(base, own_ops)

    # ------------------------------------------------------------------ #
    # Writes (buffered until commit)
    # ------------------------------------------------------------------ #

    def insert(
        self,
        entity_type: str,
        entity_key: str,
        fields: Mapping[str, Any],
        tags: Iterable[str] = (),
    ) -> None:
        """Buffer an insert (a new entity version)."""
        self._buffer(EventKind.INSERT, entity_type, entity_key, dict(fields), tags)

    def apply_delta(
        self,
        entity_type: str,
        entity_key: str,
        delta: Delta,
        tags: Iterable[str] = (),
    ) -> None:
        """Buffer a commutative delta (record the operation, 2.8)."""
        self._buffer(EventKind.DELTA, entity_type, entity_key, delta.to_payload(), tags)

    def set_fields(
        self,
        entity_type: str,
        entity_key: str,
        fields: Mapping[str, Any],
        tags: Iterable[str] = (),
    ) -> None:
        """Buffer a field overwrite (prefer deltas where possible)."""
        self._buffer(EventKind.SET_FIELDS, entity_type, entity_key, dict(fields), tags)

    def tombstone(self, entity_type: str, entity_key: str) -> None:
        """Buffer a deletion mark."""
        self._buffer(EventKind.TOMBSTONE, entity_type, entity_key, {}, ())

    def mark_obsolete(self, entity_type: str, entity_key: str) -> None:
        """Buffer an obsolescence mark (tentative data superseded)."""
        self._buffer(EventKind.OBSOLETE, entity_type, entity_key, {}, ())

    def _buffer(
        self,
        kind: EventKind,
        entity_type: str,
        entity_key: str,
        payload: dict[str, Any],
        tags: Iterable[str],
    ) -> None:
        self._check_open()
        self.ops.append(
            PendingOp(
                kind,
                entity_type,
                entity_key,
                payload,
                frozenset(tags) if tags else _EMPTY_TAGS,
            )
        )

    # ------------------------------------------------------------------ #
    # Side channels
    # ------------------------------------------------------------------ #

    def defer(
        self,
        name: str,
        run: Callable[[LSDBStore], None],
        cost: float = 1.0,
    ) -> None:
        """Register a deferred action (secondary update, principle 2.3).

        The action becomes part of the committed descriptor and runs
        after the acknowledgement (deferred mode) or before it
        (synchronous mode).
        """
        self._check_open()
        self.actions.append(DeferredAction(name=name, run=run, cost=cost))

    def enqueue(self, topic: str, payload: Mapping[str, Any]) -> Optional[str]:
        """Buffer an event for publication at commit (transactional
        outbox — failed transactions leak no events, principle 2.4)."""
        self._check_open()
        if self.outbox is None:
            return None
        return self.outbox.enqueue(topic, payload)

    def enqueue_on_abort(self, topic: str, payload: Mapping[str, Any]) -> Optional[str]:
        """Buffer an infrastructure compensation event published only if
        this transaction aborts (post-rollback actions, 2.4)."""
        self._check_open()
        if self.outbox is None:
            return None
        return self.outbox.enqueue_on_abort(topic, payload)

    # ------------------------------------------------------------------ #
    # Outcome
    # ------------------------------------------------------------------ #

    def touched_entities(self) -> set[tuple[str, str]]:
        """Entity refs this transaction writes."""
        return {op.entity_ref for op in self.ops}

    def commit(self) -> CommitReceipt:
        """Attempt to commit; see :class:`CommitReceipt`.

        Never raises for concurrency or managed-constraint outcomes —
        the receipt carries success/failure so simulator-driven clients
        can branch without exception plumbing.
        """
        self._check_open()
        return self.manager._commit(self)

    def abort(self, reason: str = "explicit rollback") -> CommitReceipt:
        """Roll back: buffered ops are discarded, abort-bound
        compensation events publish, locks/validators release."""
        self._check_open()
        return self.manager._abort(self, reason)

    def _check_open(self) -> None:
        if self.finished:
            raise TransactionAborted(f"transaction {self.tx_id} already finished")


class TransactionManager:
    """Factory and commit engine for transactions over one store.

    Args:
        store: The serialization unit's store.
        sim: Optional simulator; without it, deferred actions run inline
            and all receipt times collapse to the store clock.
        queue: Optional queue backing transactional outboxes.
        constraints: Optional constraint manager consulted at commit.
        cc_mode: Default concurrency-control mode for new transactions.
        update_mode: Deferred (SAP default) or synchronous secondary
            updates.
        commit_cost: Virtual time to durably commit the descriptor.
        defer_lag: Virtual time between user ack and the first deferred
            action starting (queueing/dispatch delay).
        locks: Logical lock manager; required for ``TRY_LOCK`` mode and
            used to hold entity locks while deferred actions run.
        isolation: Default :class:`IsolationLevel` for new transactions
            (``None`` keeps the plain :class:`CCMode` behaviour; an
            explicit ``mode=`` to :meth:`begin` always wins).
        propagation_lag: Virtual time an NMSI commit takes to become
            visible at *other* sites (its own site sees it at once).
        default_site: Site attributed to transactions that do not pass
            one to :meth:`begin`.
        metrics: Optional :class:`repro.obs.MetricsRegistry`; commits
            and aborts count into ``tx.commits``/``tx.aborts`` (labelled
            by mode) and snapshot transactions record their begin-to-
            commit ``tx.snapshot_age``.
    """

    def __init__(
        self,
        store: LSDBStore,
        sim: Optional[Simulator] = None,
        queue: Optional[ReliableQueue] = None,
        constraints: Optional[ConstraintManager] = None,
        cc_mode: CCMode = CCMode.SOLIPSISTIC,
        update_mode: UpdateMode = UpdateMode.DEFERRED,
        commit_cost: float = 1.0,
        defer_lag: float = 1.0,
        locks: Optional[LogicalLockManager] = None,
        isolation: Optional[IsolationLevel] = None,
        propagation_lag: float = 0.0,
        default_site: str = "local",
        metrics=None,
    ):
        self.store = store
        self.sim = sim
        self.queue = queue
        self.constraints = constraints
        self.cc_mode = cc_mode
        self.update_mode = update_mode
        self.commit_cost = commit_cost
        self.defer_lag = defer_lag
        self.locks = locks or LogicalLockManager()
        self.occ = OCCValidator()
        self.isolation = isolation
        self.propagation_lag = propagation_lag
        self.default_site = default_site
        self.metrics = metrics
        self._tx_ids = itertools.count(1)
        self.commits = 0
        self.aborts = 0
        self.abort_reasons: dict[str, int] = {}
        self._outcome_metrics: dict[tuple[bool, bool, str], tuple[Any, Any]] = {}
        #: Commit history the isolation levels validate against: commit
        #: order, per-tx records, and the per-site commit sequence
        #: vector snapshots are cut from.
        self._commit_order: list[CommittedTx] = []
        self._committed: dict[str, CommittedTx] = {}
        self._site_vector = VersionVector()

    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now if self.sim else 0.0

    def begin(
        self,
        mode: Optional[CCMode] = None,
        tx_id: str = "",
        isolation: Optional[IsolationLevel] = None,
        site: str = "",
    ) -> Transaction:
        """Open a transaction (one per process step — principle 2.4).

        Args:
            mode: Explicit concurrency-control mode.  Passing one opts
                out of the isolation spectrum entirely (the plain
                pre-spectrum behaviour).
            tx_id: Optional explicit id.
            isolation: Level on the spectrum; defaults to the manager's
                ``isolation`` (``None`` means plain ``cc_mode``).
            site: Site the transaction runs at (NMSI visibility origin).
        """
        if mode is not None:
            level = None
        else:
            level = isolation if isolation is not None else self.isolation
            mode = _CC_FOR_LEVEL[level] if level is not None else self.cc_mode
        return Transaction(
            self, tx_id or f"tx-{next(self._tx_ids)}", mode, level, site
        )

    # ------------------------------------------------------------------ #
    # Snapshot machinery (SNAPSHOT / NMSI)
    # ------------------------------------------------------------------ #

    def _snapshot_for(
        self, site: str, now: float, isolation: IsolationLevel
    ) -> tuple[frozenset[str], VectorClock]:
        """The committed transactions visible to a transaction beginning
        now at ``site``, plus the per-site commit-sequence vector of
        that visible set.

        Every level except NMSI sees the full committed prefix —
        snapshots are monotonic by construction.  NMSI sees site-local
        commits immediately and remote commits only once
        ``propagation_lag`` has elapsed since they committed; because a
        site's commits propagate in commit order, the visible set is a
        per-site prefix and the vector representation is exact.
        """
        if isolation is IsolationLevel.NMSI:
            visible = [
                record
                for record in self._commit_order
                if record.site == site
                or record.committed_at + self.propagation_lag <= now
            ]
        else:
            visible = self._commit_order
        counts: dict[str, int] = {}
        for record in visible:
            if record.seq > counts.get(record.site, 0):
                counts[record.site] = record.seq
        return (
            frozenset(record.tx_id for record in visible),
            VectorClock(counts),
        )

    def _event_visible(self, event: LogEvent, tx: Transaction) -> bool:
        """Whether a committed log event belongs in ``tx``'s snapshot.

        Events from tracked transactions follow the snapshot's visible
        set; everything else (direct store writes, deferred actions,
        foreign managers) counts as committed-at-append and is visible
        iff it predates the snapshot LSN.
        """
        if event.tx_id and event.tx_id in self._committed:
            return event.tx_id in tx.snapshot_txids
        return event.lsn <= tx.snapshot_lsn

    def _snapshot_read(
        self, tx: Transaction, entity_type: str, entity_key: str
    ) -> Optional[EntityState]:
        """Fold the visible prefix of one entity's history — the
        snapshot levels' read path.  O(entity history), which is the
        price of reading the past out of an insert-only log without a
        multi-version cache."""
        events = [
            event
            for event in self.store.history(entity_type, entity_key)
            if self._event_visible(event, tx)
        ]
        if not events:
            return None
        return self.store.rollup.fold(events).get((entity_type, entity_key))

    def _first_committer_conflict(self, tx: Transaction) -> str:
        """First-committer-wins validation: a write-write conflict
        exists when any committed event on a ref this transaction
        writes is *outside* its snapshot.  Returns the abort reason
        ("" when the transaction may commit).

        For SNAPSHOT the invisible writers are exactly those that
        committed after ``begin()``; for NMSI they additionally include
        remote commits still inside the propagation window, which is
        the conservative reading that keeps lost updates impossible
        even though the snapshot itself may be stale.
        """
        for ref in sorted(tx.touched_entities()):
            for event in self.store.history(*ref):
                if event.tx_id == tx.tx_id:
                    continue
                if not self._event_visible(event, tx):
                    writer = event.tx_id or f"non-transactional lsn {event.lsn}"
                    return (
                        f"write-write conflict on {ref[0]}/{ref[1]} "
                        f"with {writer}"
                    )
        return ""

    def _register_commit(self, tx: Transaction) -> None:
        """Record a tracked commit in the site-sequenced history."""
        record = CommittedTx(
            tx_id=tx.tx_id,
            site=tx.site,
            seq=self._site_vector.advance(tx.site),
            committed_at=self.now(),
            write_refs=frozenset(tx.touched_entities()),
        )
        self._commit_order.append(record)
        self._committed[tx.tx_id] = record

    def _count_outcome(self, tx: Transaction, committed: bool) -> None:
        """Count the outcome into the metrics registry (callers check
        that one is attached)."""
        label = tx.isolation.value if tx.isolation is not None else tx.mode.value
        # "solipsistic" is both a level and a mode label, and only a
        # level's commit records its snapshot age: that is part of the key.
        timed = committed and tx.isolation is not None
        key = (committed, timed, label)
        handles = self._outcome_metrics.get(key)
        if handles is None:  # resolved in the registry once per key
            handles = self._outcome_metrics[key] = (
                self.metrics.counter(
                    "tx.commits" if committed else "tx.aborts", mode=label
                ),
                self.metrics.histogram("tx.snapshot_age", mode=label)
                if timed
                else None,
            )
        counter, snapshot_age = handles
        counter.inc()
        if snapshot_age is not None:
            snapshot_age.record(max(0.0, self.now() - tx.begun_at))

    # ------------------------------------------------------------------ #
    # Commit path
    # ------------------------------------------------------------------ #

    def _commit(self, tx: Transaction) -> CommitReceipt:
        sim = self.sim
        submitted_at = sim.now if sim is not None else 0.0
        # 1. Concurrency control.  Solipsists skip straight through.
        if tx.isolation in SNAPSHOT_LEVELS:
            conflict = self._first_committer_conflict(tx)
            if conflict:
                return self._abort(tx, conflict, occ_done=True)
        if tx.mode is CCMode.OPTIMISTIC:
            try:
                self.occ.validate(tx.tx_id, tx.read_set)
            except ValidationFailed as error:
                return self._abort(tx, str(error), occ_done=True)
        elif tx.mode is CCMode.TRY_LOCK:
            acquired: list[str] = []
            for ref in sorted(tx.touched_entities()):
                resource = f"{ref[0]}/{ref[1]}"
                if self.locks.acquire(resource, tx.tx_id, LockMode.EXCLUSIVE):
                    acquired.append(resource)
                else:
                    for resource_name in acquired:
                        self.locks.release(resource_name, tx.tx_id)
                    return self._abort(
                        tx, f"lock unavailable on {resource}", occ_done=True
                    )
        # 2. Constraints (managed violations record; PREVENT blocks).
        violations: list[Violation] = []
        if self.constraints is not None and tx.ops:
            outcome = self.constraints.check_ops(tx.ops, tx_id=tx.tx_id)
            if outcome.blocking:
                if tx.mode is CCMode.TRY_LOCK:
                    self.locks.release_all(tx.tx_id)
                # An optimist got through validation but recorded no
                # writes; ``_abort`` withdraws it from the validator, so
                # no concurrent reader aborts against writes that never
                # happened.
                return self._abort(tx, "blocking constraint violation")
            violations = outcome.violations
        # Nothing can block the commit any more: record the optimist's
        # writes for later validators.
        if tx.mode is CCMode.OPTIMISTIC:
            self.occ.record(
                tx.tx_id, [f"{ref[0]}/{ref[1]}" for ref in tx.touched_entities()]
            )
        # 3. Make the primary events durable.
        store = self.store
        tx_id = tx.tx_id
        rows: list[int] = []
        for kind, entity_type, entity_key, payload, tags in tx.ops:
            rows.append(
                store.append_local(entity_type, entity_key, kind, payload, tx_id, tags)
            )
        if tx.isolation is not None:
            self._register_commit(tx)
        # 4. Commit the descriptor listing pending actions (the SAP
        #    model's durable to-do list).
        if tx.actions:
            store.insert(
                DESCRIPTOR_TYPE,
                tx_id,
                {
                    "status": "pending",
                    "actions": [action.name for action in tx.actions],
                },
            )
            # 5. Hold logical locks on touched entities until the
            #    deferred actions complete (they exclude *other*
            #    lock-respecting users, never the owner).
            for ref in sorted(tx.touched_entities()):
                self.locks.acquire(f"{ref[0]}/{ref[1]}", tx_id, LockMode.EXCLUSIVE)
        # 6. Publish the outbox (events exist only for committed work).
        if tx.outbox is not None:
            tx.outbox.publish_on_commit()
        # 7. Schedule the deferred actions and compute the timeline.
        if tx.actions:
            acked_at, actions_done_at = self._schedule_actions(tx, submitted_at)
        else:
            acked_at = actions_done_at = submitted_at + self.commit_cost
            # No deferred work: nothing justifies holding locks past
            # the commit itself.
            self.locks.release_all(tx_id)
        tx.finished = True
        self.commits += 1
        if self.metrics is not None:
            self._count_outcome(tx, committed=True)
        events = EventSlice(store.log.arena, rows)
        if tx.isolation is None:
            return CommitReceipt(
                tx_id=tx_id,
                committed=True,
                submitted_at=submitted_at,
                acked_at=acked_at,
                actions_done_at=actions_done_at,
                events=events,
                violations=violations,
                began_at=tx.begun_at,
            )
        return CommitReceipt(
            tx_id=tx_id,
            committed=True,
            submitted_at=submitted_at,
            acked_at=acked_at,
            actions_done_at=actions_done_at,
            events=events,
            violations=violations,
            **self._receipt_tracking(tx),
        )

    def _schedule_actions(
        self, tx: Transaction, submitted_at: float
    ) -> tuple[float, float]:
        """Returns ``(acked_at, actions_done_at)`` for a transaction
        with deferred actions and arranges for each action to apply at
        its completion time."""
        commit_done = submitted_at + self.commit_cost
        total_action_cost = sum(action.cost for action in tx.actions)
        if self.update_mode is UpdateMode.SYNCHRONOUS:
            start = commit_done
            acked_at = commit_done + total_action_cost
            done_at = acked_at
        else:
            acked_at = commit_done
            start = commit_done + self.defer_lag
            done_at = start + total_action_cost
        if self.sim is None:
            for action in tx.actions:
                action.run(self.store)
            self._finish_actions(tx)
            return acked_at, done_at
        cursor = start
        for action in tx.actions:
            cursor += action.cost
            self.sim.schedule_at(
                cursor,
                (lambda bound_action=action: bound_action.run(self.store)),
                label=f"deferred:{tx.tx_id}:{action.name}",
            )
        self.sim.schedule_at(
            done_at, lambda: self._finish_actions(tx), label=f"tx-done:{tx.tx_id}"
        )
        return acked_at, done_at

    def _finish_actions(self, tx: Transaction) -> None:
        """Mark the descriptor done and drop the logical locks."""
        self.store.set_fields(DESCRIPTOR_TYPE, tx.tx_id, {"status": "done"})
        self.locks.release_all(tx.tx_id)

    # ------------------------------------------------------------------ #
    # Abort path
    # ------------------------------------------------------------------ #

    def _abort(
        self, tx: Transaction, reason: str, occ_done: bool = False
    ) -> CommitReceipt:
        if tx.mode is CCMode.OPTIMISTIC and not occ_done:
            self.occ.abort(tx.tx_id)
        if tx.outbox is not None:
            tx.outbox.discard_on_abort()
        tx.finished = True
        self.aborts += 1
        self.abort_reasons[reason] = self.abort_reasons.get(reason, 0) + 1
        if self.metrics is not None:
            self._count_outcome(tx, committed=False)
        now = self.now()
        return CommitReceipt(
            tx_id=tx.tx_id,
            committed=False,
            reason=reason,
            submitted_at=now,
            acked_at=now,
            actions_done_at=now,
            **self._receipt_tracking(tx),
        )

    def _receipt_tracking(self, tx: Transaction) -> dict[str, Any]:
        """The isolation-tracking receipt fields (uniform across
        commit and abort)."""
        if tx.isolation is None:
            return {"began_at": tx.begun_at}
        return {
            "isolation": tx.isolation.value,
            "site": tx.site,
            "began_at": tx.begun_at,
            "snapshot_lsn": tx.snapshot_lsn,
            "snapshot_txids": tuple(sorted(tx.snapshot_txids)),
            "snapshot_vector": tx.snapshot_vector,
        }

    @property
    def abort_rate(self) -> float:
        """Aborts as a fraction of finished transactions."""
        finished = self.commits + self.aborts
        return self.aborts / finished if finished else 0.0
