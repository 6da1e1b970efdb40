"""The anomaly harness: executable isolation-level semantics.

The paper's thesis is that consistency is a spectrum to be chosen per
workload.  :mod:`repro.core.transaction` provides the spectrum
(:class:`~repro.core.transaction.IsolationLevel`); this package proves,
by *running histories*, which anomalies each point on it permits:

* :mod:`repro.isolation.histories` — canned multi-entity histories
  (dirty read, read skew, lost update, write skew, long fork,
  non-monotonic snapshot) expressed as deterministic virtual-time
  schedules, plus the :class:`HistoryRunner` that executes one against
  a transaction manager.
* :mod:`repro.isolation.detector` — the :class:`AnomalyDetector` that
  inspects committed state, observations and
  :class:`~repro.core.transaction.CommitReceipt` metadata to decide
  whether each anomaly actually materialized.
* :mod:`repro.isolation.scorecard` — the mode x anomaly matrix runner
  (every history under every level), the published ``THEORY`` matrix it
  must match, and the open-loop load probe measuring per-mode
  abort-rate/latency/lost-update economics.

``benchmarks/bench_isolation.py`` drives this into
``BENCH_isolation.json``; ``tests/test_claims.py`` fails the build when
the matrix and the theory disagree.
"""

from repro.isolation.detector import AnomalyDetector, Verdict
from repro.isolation.histories import (
    HISTORIES,
    History,
    HistoryResult,
    HistoryRunner,
    Observation,
    Step,
    history_named,
)
from repro.isolation.scorecard import (
    ANOMALIES,
    MODES,
    THEORY,
    anomaly_matrix,
    matrix_bools,
    matches_theory,
    run_history,
    run_open_loop,
    scorecard,
)

__all__ = [
    "ANOMALIES",
    "AnomalyDetector",
    "HISTORIES",
    "History",
    "HistoryResult",
    "HistoryRunner",
    "MODES",
    "Observation",
    "Step",
    "THEORY",
    "Verdict",
    "anomaly_matrix",
    "history_named",
    "matrix_bools",
    "matches_theory",
    "run_history",
    "run_open_loop",
    "scorecard",
]
