"""The paper's primary contribution: the principles engine.

This package mechanises the eleven principles of *Principles for
Inconsistency* (CIDR 2009):

* :mod:`~repro.core.principles` — the principles as metadata.
* :mod:`~repro.core.entity` — hierarchical business entities (2.5).
* :mod:`~repro.core.transaction` — solipsistic transactions and the SAP
  deferred-update model (2.3, 2.10).
* :mod:`~repro.core.process` — SOUPS process steps and collapsing
  (2.4, 2.6, 3.1).
* :mod:`~repro.core.constraints` — violations as managed exceptions
  (2.1, 2.2).
* :mod:`~repro.core.conflict` — the single end-to-end conflict
  mechanism (2.8, 2.10).
* :mod:`~repro.core.compensation` — tentative operations and
  apology-oriented computing (2.9, 3.2).
* :mod:`~repro.core.consistency` — metadata-driven consistency levels
  (3.1, 3.2).
* :mod:`~repro.core.policy` — the unified fault-tolerance policy API
  (retry, timeout, deadline) shared by queues, replication, 2PC and
  the process engine (2.11).
"""

from repro.core.compensation import (
    Apology,
    ApologyLedger,
    CompensationManager,
    TentativeOperation,
    TentativeStatus,
)
from repro.core.conflict import CandidateWrite, ConflictResolver, Resolution, Strategy
from repro.core.consistency import (
    ConsistencyLevel,
    ConsistencyPolicy,
    PolicyRouter,
    SchemeBinding,
)
from repro.core.constraints import (
    ConstraintManager,
    ConstraintMode,
    NonNegativeConstraint,
    PredicateConstraint,
    ReferentialConstraint,
    Violation,
)
from repro.core.entity import (
    EntityCatalog,
    EntityType,
    FieldSpec,
    child_key,
    parent_key,
)
from repro.core.migration import (
    ApplicationMigrator,
    ChangeKind,
    MigratingReducer,
    MigrationPlan,
    SchemaChange,
    SchemaMigrationManager,
    classify_changes,
)
from repro.core.ops import PendingOp, preview_state
from repro.core.policy import Deadline, RetryBudget, RetryPolicy, TimeoutPolicy
from repro.core.principles import PRINCIPLES, Principle, get_principle
from repro.core.readpath import (
    ConsistencyUnavailable,
    ReadRequest,
    ReadResult,
    ReadSurface,
)
from repro.core.process import JoinContext, ProcessEngine, ProcessStep, StepContext
from repro.core.transaction import (
    CCMode,
    CommitReceipt,
    DeferredAction,
    Transaction,
    TransactionManager,
    UpdateMode,
)

__all__ = [
    "Apology",
    "ApologyLedger",
    "CompensationManager",
    "TentativeOperation",
    "TentativeStatus",
    "CandidateWrite",
    "ConflictResolver",
    "Resolution",
    "Strategy",
    "ConsistencyLevel",
    "ConsistencyPolicy",
    "PolicyRouter",
    "SchemeBinding",
    "ConstraintManager",
    "ConstraintMode",
    "NonNegativeConstraint",
    "PredicateConstraint",
    "ReferentialConstraint",
    "Violation",
    "EntityCatalog",
    "EntityType",
    "FieldSpec",
    "child_key",
    "parent_key",
    "ApplicationMigrator",
    "ChangeKind",
    "MigratingReducer",
    "MigrationPlan",
    "SchemaChange",
    "SchemaMigrationManager",
    "classify_changes",
    "PendingOp",
    "preview_state",
    "Deadline",
    "RetryBudget",
    "RetryPolicy",
    "TimeoutPolicy",
    "PRINCIPLES",
    "Principle",
    "get_principle",
    "ConsistencyUnavailable",
    "ReadRequest",
    "ReadResult",
    "ReadSurface",
    "JoinContext",
    "ProcessEngine",
    "ProcessStep",
    "StepContext",
    "CCMode",
    "CommitReceipt",
    "DeferredAction",
    "Transaction",
    "TransactionManager",
    "UpdateMode",
]
