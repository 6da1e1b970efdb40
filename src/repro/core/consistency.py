"""Metadata-driven consistency: the "single infrastructure" question.

Sections 2.9 and 3.1 ask "whether a single infrastructure can deliver
different levels of consistency for different data and different
applications", and section 3.2 sketches the answer this module builds:
"a system that takes business application requirements and automatically
delivers appropriate consistency levels based on metadata (describing
data, applications, customer expectations, etc.)".

:class:`ConsistencyPolicy` is that metadata — per data class, a level
and a rationale.  :class:`PolicyRouter` binds each level to a concrete
scheme (an active/active group, a master, a quorum group, a warehouse
extract...) and routes every read/write by the entity type's policy.
The mixed-consistency bookstore of experiment E10 and the
``examples/mixed_consistency.py`` scenario run on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional

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
    """

    entity_type: str
    level: ConsistencyLevel
    rationale: str
    max_staleness: Optional[float] = None


@dataclass
class SchemeBinding:
    """The concrete handlers implementing one consistency level.

    Attributes:
        write: ``(entity_type, *args, **kwargs)`` write handler.
        read: ``(entity_type, entity_key)`` read handler.  When
            ``reads_typed`` is set, the router instead calls
            ``read(entity_type, entity_key, request=ReadRequest(...))``
            and expects a :class:`~repro.core.readpath.ReadResult`
            stamped with delivered level and staleness back.
        describe: Human-readable scheme description for reports.
        reads_typed: Whether ``read`` speaks the typed
            request/result protocol.  Defaults ``False`` so existing
            lambda bindings keep their exact call shape.
    """

    write: Callable[..., Any]
    read: Callable[..., Any]
    describe: str = ""
    reads_typed: bool = False


class PolicyRouter:
    """Routes operations to schemes according to policy metadata.

    Args:
        default_level: Level applied to entity types with no explicit
            policy (``None`` means unpolicied access is an error — the
            strict posture).

    Example:
        >>> router = PolicyRouter(default_level=ConsistencyLevel.EVENTUAL)
        >>> router.bind(ConsistencyLevel.EVENTUAL, SchemeBinding(
        ...     write=lambda *a, **k: "eventual-write",
        ...     read=lambda *a, **k: "eventual-read"))
        >>> router.add_policy(ConsistencyPolicy(
        ...     "order", ConsistencyLevel.EVENTUAL,
        ...     rationale="order entry must always accept"))
        >>> router.write("order", "o1", {})
        'eventual-write'
    """

    def __init__(
        self,
        default_level: Optional[ConsistencyLevel] = None,
        metrics: Any = None,
    ):
        self.default_level = default_level
        self.metrics = metrics
        self._policies: dict[str, ConsistencyPolicy] = {}
        self._bindings: dict[ConsistencyLevel, SchemeBinding] = {}
        self.routed: dict[ConsistencyLevel, int] = {}

    def add_policy(self, policy: ConsistencyPolicy) -> None:
        """Register the policy for one data class."""
        if not policy.rationale:
            raise ConsistencyPolicyError(
                f"policy for {policy.entity_type!r} needs a rationale"
            )
        self._policies[policy.entity_type] = policy

    def bind(self, level: ConsistencyLevel, binding: SchemeBinding) -> None:
        """Attach the concrete scheme implementing ``level``."""
        self._bindings[level] = binding

    def policy_for(self, entity_type: str) -> ConsistencyPolicy:
        """The effective policy of a data class.

        Raises:
            ConsistencyPolicyError: If no policy exists and there is no
                default level.
        """
        policy = self._policies.get(entity_type)
        if policy is not None:
            return policy
        if self.default_level is None:
            raise ConsistencyPolicyError(
                f"no consistency policy for {entity_type!r} and no default"
            )
        return ConsistencyPolicy(
            entity_type=entity_type,
            level=self.default_level,
            rationale="library default",
        )

    def level_for(self, entity_type: str) -> ConsistencyLevel:
        """The effective level of a data class."""
        return self.policy_for(entity_type).level

    def _binding_for(self, entity_type: str) -> SchemeBinding:
        level = self.level_for(entity_type)
        binding = self._bindings.get(level)
        if binding is None:
            raise ConsistencyPolicyError(
                f"{entity_type!r} requires {level.value} but no scheme is bound"
            )
        self.routed[level] = self.routed.get(level, 0) + 1
        return binding

    def write(self, entity_type: str, *args: Any, **kwargs: Any) -> Any:
        """Route a write through the data class's scheme."""
        return self._binding_for(entity_type).write(entity_type, *args, **kwargs)

    def read(self, entity_type: str, *args: Any, **kwargs: Any) -> Any:
        """Route a read through the data class's scheme.

        For a binding on the typed protocol (``reads_typed=True``) the
        router builds the :class:`~repro.core.readpath.ReadRequest`
        from the entity type's policy metadata — level *and*
        ``max_staleness`` — unless the caller passed ``request=``
        explicitly.  The declared bound is therefore enforced on every
        routed read, including the EVENTUAL/EXTRACT paths that
        historically ignored it; violations increment
        ``read.staleness_violations`` on :attr:`metrics`.
        """
        policy = self.policy_for(entity_type)
        binding = self._binding_for(entity_type)
        if not binding.reads_typed:
            return binding.read(entity_type, *args, **kwargs)
        from repro.core.readpath import ReadRequest, ReadResult

        request = kwargs.pop("request", None)
        if request is None:
            request = ReadRequest(
                level=policy.level, max_staleness=policy.max_staleness
            )
        result = binding.read(entity_type, *args, request=request, **kwargs)
        if (
            isinstance(result, ReadResult)
            and self.metrics is not None
            and not result.bound_violated
            and request.max_staleness is not None
            and result.staleness is not None
            and result.staleness > request.max_staleness
        ):
            result.bound_violated = True
            self.metrics.counter(
                "read.staleness_violations",
                level=(
                    result.delivered_level.value
                    if result.delivered_level
                    else "unknown"
                ),
            ).inc()
        return result

    def policies(self) -> list[ConsistencyPolicy]:
        """All registered policies (the metadata table, for reports)."""
        return sorted(self._policies.values(), key=lambda p: p.entity_type)
