"""Replication schemes across the consistency/availability spectrum.

The paper's section 2 preamble names the design space this package
implements: "active systems with asynchronous commits to backups, active
systems with synchronous commits to backups, active/active replication
with subjective/eventual consistency, and replication with strong
consistency".  The asynchronous commits to backups are
:class:`MasterSlaveGroup` — section 3.1's master/slave mixed-consistency
design is the same log shipping with reads allowed at the slaves, and a
primary/backup pair is a group with one slave.  Beside them sit the
read-only warehouse extract from section 3.1 and the geo-distributed
partially replicated shard groups of :mod:`repro.replication.geo`.
"""

from repro.replication.active_active import ActiveActiveGroup
from repro.replication.anti_entropy import AntiEntropy
from repro.replication.geo import GeoReplicaGroup, GeoShardReplica, WanGateway
from repro.replication.master_slave import FailoverReport, MasterSlaveGroup
from repro.replication.quorum import QuorumGroup, QuorumOutcome
from repro.replication.replica import ReplicaNode, converged
from repro.replication.synchronous import SyncPrimaryBackup, SyncWriteResult
from repro.replication.warehouse import WarehouseExtract

__all__ = [
    "ActiveActiveGroup",
    "AntiEntropy",
    "FailoverReport",
    "GeoReplicaGroup",
    "GeoShardReplica",
    "MasterSlaveGroup",
    "WanGateway",
    "QuorumGroup",
    "QuorumOutcome",
    "ReplicaNode",
    "converged",
    "SyncPrimaryBackup",
    "SyncWriteResult",
    "WarehouseExtract",
]
