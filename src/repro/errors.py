"""Shared exception hierarchy for the ``repro`` library.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate on the specific condition.

The hierarchy mirrors the paper's distinction between *prevented* failures
(programming errors, unsupported requests — raised eagerly) and *managed*
inconsistency (constraint violations, conflicts — which are ordinarily
recorded and handled, not raised; see :mod:`repro.core.constraints`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SimulationError(ReproError):
    """The simulation engine was used incorrectly (e.g. time moved backwards)."""


class NetworkError(SimulationError):
    """A message could not be routed (unknown node, node not registered)."""


class TransactionError(ReproError):
    """Base class for transaction-processing failures."""


class TransactionAborted(TransactionError):
    """The transaction was aborted and its effects rolled back.

    Attributes:
        reason: Human-readable explanation (deadlock victim, validation
            failure, explicit rollback, ...).
    """

    def __init__(self, reason: str = "aborted"):
        super().__init__(reason)
        self.reason = reason


class DeadlockDetected(TransactionAborted):
    """The transaction was chosen as a deadlock victim under 2PL."""

    def __init__(self, reason: str = "deadlock victim"):
        super().__init__(reason)


class ValidationFailed(TransactionAborted):
    """Optimistic concurrency control validation failed at commit."""

    def __init__(self, reason: str = "optimistic validation failed"):
        super().__init__(reason)


class LockUnavailable(TransactionError):
    """A non-blocking lock request could not be granted."""


class EntityError(ReproError):
    """Base class for entity-model failures."""


class UnknownEntityType(EntityError):
    """An entity type name was not registered in the catalog."""


class EntityNotFound(EntityError):
    """No live version of the requested entity exists."""


class SchemaViolation(EntityError):
    """A payload does not match the entity type's declared schema."""


class FaultToleranceError(ReproError):
    """Base class for *managed give-up* conditions.

    The paper's fault model (section 2.11, "the show must go on") treats
    failure as ordinary input: an operation that cannot complete is
    retried under a :class:`~repro.core.policy.RetryPolicy`, bounded by a
    :class:`~repro.core.policy.TimeoutPolicy`, and — only once both are
    exhausted — *gives up* in a way the application can observe and
    apologise for.  Every such give-up path raises (or records) a
    subclass of this error, so one ``except FaultToleranceError`` clause
    catches "the system stopped trying" regardless of which subsystem
    stopped.
    """


class DeadlineExceeded(FaultToleranceError, TimeoutError):
    """An operation ran past its deadline (overall or per-attempt).

    Also a built-in :class:`TimeoutError`, so callers written against
    the standard timeout idiom catch it without knowing the library.

    Attributes:
        deadline: The virtual time the operation had to finish by.
        now: The virtual time when expiry was noticed.
    """

    def __init__(self, message: str = "deadline exceeded",
                 deadline: float = 0.0, now: float = 0.0):
        super().__init__(message)
        self.deadline = deadline
        self.now = now


class RetryExhausted(FaultToleranceError):
    """An operation was retried up to its policy's limit and still failed.

    Attributes:
        attempts: How many attempts were made before giving up.
        reason: Why the attempts kept failing, when known.
    """

    def __init__(self, message: str = "retries exhausted",
                 attempts: int = 0, reason: str = ""):
        super().__init__(message)
        self.attempts = attempts
        self.reason = reason


class RetryBudgetExhausted(RetryExhausted):
    """A shared retry budget ran dry before the per-operation attempt
    cap was reached (load-shedding under a retry storm)."""

    def __init__(self, message: str = "retry budget exhausted",
                 attempts: int = 0):
        super().__init__(message, attempts=attempts, reason="budget")


class CommitInDoubt(FaultToleranceError):
    """A two-phase-commit participant voted yes and lost the coordinator.

    The classic 2PC blocking window (principle 2.5): the participant
    cannot unilaterally commit or abort and is stuck holding locks until
    the coordinator (or an operator) resolves the transaction.

    Attributes:
        tx_id: The in-doubt transaction.
        since: Virtual time the participant entered the window.
    """

    def __init__(self, tx_id: str = "", since: float = 0.0):
        super().__init__(f"transaction {tx_id!r} is in doubt since t={since}")
        self.tx_id = tx_id
        self.since = since


class ProcessError(ReproError):
    """Base class for process-engine failures."""


class SoupsViolation(ProcessError):
    """A process step tried to update more than one entity or run more
    than one transaction, violating the SOUPS principle (paper section 2.6)."""


class QueueError(ReproError):
    """Base class for messaging failures."""


class DuplicateMessage(QueueError):
    """An idempotent receiver rejected a message it has already processed."""


class ReplicationError(ReproError):
    """Base class for replication-scheme failures."""


class QuorumUnavailable(ReplicationError, DeadlineExceeded):
    """A quorum operation could not reach enough replicas before its
    deadline (CAP tradeoff) — both a replication failure and a managed
    timeout, so either ``except`` clause catches it."""

    def __init__(self, message: str = "quorum unavailable",
                 deadline: float = 0.0, now: float = 0.0):
        ReplicationError.__init__(self, message)
        self.deadline = deadline
        self.now = now


class NotMaster(ReplicationError):
    """An update was sent to a replica that does not accept updates."""


class MalformedFrame(ReproError):
    """A received :class:`~repro.lsdb.columnar.ColumnFrame` has ragged
    columns or a code outside its tables; it is rejected whole, before
    any row reaches the arena."""


class ConsistencyPolicyError(ReproError):
    """No consistency policy matches the requested data class/application."""
