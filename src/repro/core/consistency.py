"""Consistency levels, and the metadata that picks one per data class.

Sections 2.9 and 3.1 ask "whether a single infrastructure can deliver
different levels of consistency for different data and different
applications", and section 3.2 sketches the answer: "a system that
takes business application requirements and automatically delivers
appropriate consistency levels based on metadata (describing data,
applications, customer expectations, etc.)".

:class:`ConsistencyLevel` is the spectrum.  :class:`ConsistencyPolicy`
is the metadata — per data class, a level, an optional staleness bound
and the business rationale.  It is data, not a router: a cluster
declares its policies once (``ClusterBuilder.with_consistency``), and
``Cluster.read`` turns an entity type's policy into the default
:class:`~repro.core.readpath.ReadRequest` whenever the caller passes
none.  Consistency is negotiated per request, with a declared default;
the read itself goes through the one read path (front door and degrade
ladder, or the replication scheme, or the warehouse for ``EXTRACT``),
which stamps and checks the answer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConsistencyPolicyError


class ConsistencyLevel(enum.Enum):
    """The spectrum of guarantees the infrastructure can deliver.

    Ordered strongest to weakest:

    * ``STRONG`` — single-copy semantics (master writes, quorum ops);
      unapologetic, pays latency/availability.
    * ``BOUNDED_STALENESS`` — reads may lag by a declared bound
      (slave reads behind a shipping interval).
    * ``EVENTUAL`` — subjective reads/writes, convergence later;
      apologies possible.
    * ``TENTATIVE`` — operations are explicitly revocable commitments
      (reservations/offers) managed by the compensation machinery.
    * ``EXTRACT`` — read-only analytics over a periodic extract.
    """

    STRONG = "strong"
    BOUNDED_STALENESS = "bounded_staleness"
    EVENTUAL = "eventual"
    TENTATIVE = "tentative"
    EXTRACT = "extract"

    #: Rank in the order above, 0 = strongest.  A plain attribute of
    #: each member, so the read path orders levels and indexes its
    #: per-level tables without hashing an ``Enum`` (a Python-level
    #: ``__hash__``) or reading ``.value`` (a Python-level descriptor).
    strength: int


for _rank, _level in enumerate(ConsistencyLevel):
    _level.strength = _rank


@dataclass(frozen=True)
class ConsistencyPolicy:
    """The metadata record binding a data class to a level.

    Attributes:
        entity_type: The data class this policy governs.
        level: Required consistency level.
        rationale: Why — the business justification ("fulfilment must
            not oversell", "order entry must always accept").  Required:
            unexplained policies are how foolish consistency creeps in.
        max_staleness: For ``BOUNDED_STALENESS``, the tolerated lag.

    Raises:
        ConsistencyPolicyError: The rationale is empty.

    Example:
        >>> ConsistencyPolicy("order", ConsistencyLevel.EVENTUAL,
        ...                   rationale="order entry must always accept").level
        <ConsistencyLevel.EVENTUAL: 'eventual'>
    """

    entity_type: str
    level: ConsistencyLevel
    rationale: str
    max_staleness: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.rationale:
            raise ConsistencyPolicyError(
                f"policy for {self.entity_type!r} needs a rationale"
            )
