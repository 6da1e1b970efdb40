"""repro — a reproduction of *Principles for Inconsistency* (CIDR 2009).

Finkelstein, Brendle and Jacobs argued that inconsistency, managed in
principled ways, is often the right engineering choice for scalable
business systems.  This library builds the system their paper envisions:

* a **log-structured database** whose current state is a rollup
  aggregation of an insert-only event log (:mod:`repro.lsdb`);
* **convergent merge types and commutative deltas** so concurrent work
  composes (:mod:`repro.merge`);
* **solipsistic transactions** with deferred secondary updates under
  logical locks — the SAP transaction model (:mod:`repro.core.transaction`);
* a **SOUPS process engine** — one transaction, one entity per step,
  steps connected by reliable events (:mod:`repro.core.process`,
  :mod:`repro.queues`);
* **constraints as managed exceptions**, **tentative operations and
  apologies**, and a **single end-to-end conflict mechanism**
  (:mod:`repro.core`);
* the full **replication spectrum** — master/slave (the paper's
  "asynchronous commits to backups"; a primary/backup pair is a group
  with one slave), sync backup, active/active with anti-entropy,
  quorum, warehouse extract (:mod:`repro.replication`);
* everything running on a deterministic **discrete-event simulator**
  (:mod:`repro.sim`).

Quickstart::

    from repro import Simulator, LSDBStore, TransactionManager, Delta

    sim = Simulator()
    store = LSDBStore(origin="r1", clock=lambda: sim.now)
    txm = TransactionManager(store, sim=sim)
    tx = txm.begin()
    tx.insert("account", "a1", {"owner": "ada", "balance": 0})
    tx.apply_delta("account", "a1", Delta.add("balance", 100))
    receipt = tx.commit()

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
experiment suite (DESIGN.md maps each experiment to the paper claim it
reproduces).
"""

from repro.chaos import ChaosEngine, ChaosProfile, SoakConfig, run_soak
from repro.core import (
    Apology,
    ApologyLedger,
    CCMode,
    CandidateWrite,
    CommitReceipt,
    CompensationManager,
    ConflictResolver,
    ConsistencyLevel,
    ConsistencyPolicy,
    ConsistencyUnavailable,
    ConstraintManager,
    ConstraintMode,
    Deadline,
    EntityCatalog,
    EntityType,
    FieldSpec,
    JoinContext,
    NonNegativeConstraint,
    PRINCIPLES,
    PredicateConstraint,
    Principle,
    ProcessEngine,
    ProcessStep,
    ReadRequest,
    ReadResult,
    ReferentialConstraint,
    RetryBudget,
    RetryPolicy,
    StepContext,
    Strategy,
    TentativeOperation,
    TimeoutPolicy,
    Transaction,
    TransactionManager,
    UpdateMode,
    Violation,
    get_principle,
)
from repro.errors import DeadlineExceeded, RetryExhausted
from repro.frontdoor import DegradeLadder, FrontDoor, TenantQuota
from repro.lsdb import EventKind, LSDBStore, LogEvent
from repro.merge import (
    Delta,
    GCounter,
    LWWRegister,
    MVRegister,
    ORSet,
    PNCounter,
    VectorClock,
    VersionVector,
)
from repro.cluster import Cluster, ClusterBuilder
from repro.obs import MetricsRegistry, MetricsReport, Tracer
from repro.partition import (
    ConsistentHashRing,
    RebalancePlanner,
    Rebalancer,
    SerializationUnit,
)
from repro.queues import IdempotentReceiver, Message, ReliableQueue
from repro.sim import FailureInjector, Network, Node, Simulator

__version__ = "1.0.0"

__all__ = [
    "Apology",
    "ApologyLedger",
    "CCMode",
    "CandidateWrite",
    "CommitReceipt",
    "CompensationManager",
    "ConflictResolver",
    "ConsistencyLevel",
    "ConsistencyPolicy",
    "ConsistencyUnavailable",
    "ConstraintManager",
    "ConstraintMode",
    "EntityCatalog",
    "EntityType",
    "FieldSpec",
    "JoinContext",
    "NonNegativeConstraint",
    "PRINCIPLES",
    "PredicateConstraint",
    "Principle",
    "ProcessEngine",
    "ProcessStep",
    "ReadRequest",
    "ReadResult",
    "ReferentialConstraint",
    "StepContext",
    "Strategy",
    "TentativeOperation",
    "Transaction",
    "TransactionManager",
    "UpdateMode",
    "Violation",
    "get_principle",
    "EventKind",
    "LSDBStore",
    "LogEvent",
    "Delta",
    "GCounter",
    "LWWRegister",
    "MVRegister",
    "ORSet",
    "PNCounter",
    "VectorClock",
    "VersionVector",
    "Cluster",
    "ClusterBuilder",
    "ConsistentHashRing",
    "RebalancePlanner",
    "Rebalancer",
    "SerializationUnit",
    "MetricsRegistry",
    "MetricsReport",
    "Tracer",
    "IdempotentReceiver",
    "Message",
    "ReliableQueue",
    "FailureInjector",
    "Network",
    "Node",
    "Simulator",
    "ChaosEngine",
    "ChaosProfile",
    "SoakConfig",
    "run_soak",
    "Deadline",
    "RetryBudget",
    "RetryPolicy",
    "TimeoutPolicy",
    "DeadlineExceeded",
    "RetryExhausted",
    "DegradeLadder",
    "FrontDoor",
    "TenantQuota",
    "__version__",
]
