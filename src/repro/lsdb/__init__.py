"""The log-structured database (LSDB) of paper section 3.1.

"One approach we are considering involves storing events when they
arrive, with inserts treated as events, in a log-structured database
(LSDB).  What applications view as the current state of the database
would be a rollup aggregation of the contents of the LSDB [...] This can
be implemented efficiently using main memory database techniques."

Public surface:

* :class:`LSDBStore` — the facade replicas run on.  Its state map is
  the rollup, kept incrementally: every read, typed or not, answers
  from it (each row is folded once, by the first read that needs it).
* :class:`LogEvent` / :class:`EventKind` — the storage records.
* :class:`AppendOnlyLog`, :class:`Rollup`, :class:`EntityState`,
  :class:`CheckpointManager` / :class:`Checkpoint` (the one frozen
  fold: recovery, bootstrap and time travel start from it),
  :class:`SecondaryIndex`, :class:`Compactor` / :class:`Archive` — the
  constituent mechanisms, exposed for tests and experiments.
"""

from repro.lsdb.checkpoint import (
    Checkpoint,
    CheckpointManager,
    CheckpointPolicy,
)
from repro.lsdb.compaction import Archive, CompactionReport, Compactor
from repro.lsdb.events import EventKind, LogEvent
from repro.lsdb.index import SecondaryIndex
from repro.lsdb.log import AppendOnlyLog
from repro.lsdb.rollup import EntityState, GenericReducer, Reducer, Rollup
from repro.lsdb.store import LSDBStore

__all__ = [
    "Archive",
    "Checkpoint",
    "CheckpointManager",
    "CheckpointPolicy",
    "CompactionReport",
    "Compactor",
    "EventKind",
    "LogEvent",
    "SecondaryIndex",
    "AppendOnlyLog",
    "EntityState",
    "GenericReducer",
    "Reducer",
    "Rollup",
    "LSDBStore",
]
