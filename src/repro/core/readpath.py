"""The read protocol: one primitive per surface, one shared stamp.

Every copy of the data that can answer a point read — a store, a
warehouse extract, each replication scheme — is a :class:`ReadSurface`.
A surface implements exactly one thing::

    surface.serve(entity_type, entity_key, level, *, site=None)
        -> (state, delivered_level, staleness, served_by, site)

*Pick the copy the level selects and report what it honestly holds.*
``serve`` knows nothing about the caller's policy: it never raises for
a weaker-than-asked answer, never compares staleness with a bound and
never builds a :class:`ReadResult`.  ``site`` is where the reader sits,
for surfaces that span datacenters.

A surface also says what it can serve — :attr:`ReadSurface.levels` —
and how live the copies behind its STRONG and BOUNDED answers are —
:meth:`ReadSurface.health`; the front door builds its rungs from them.

Callers get the one shared entry point, inherited from the base class::

    surface.read(entity_type, entity_key, *, request=None, site=None)

which is ``deliver(*serve(request.level, ...), request)``: the served
tuple stamped into a :class:`ReadResult` with the two checks every
caller is owed — *degraded* (delivered weaker than requested; raises
:class:`ConsistencyUnavailable` when ``allow_degraded=False``) and
*bound_violated* (measured staleness above ``request.max_staleness``,
counted in ``read.staleness_violations``).  ``request=None`` means
``ReadRequest()``: the caller who does not think about consistency gets
STRONG.  There is no untyped form; ``store.get(...)`` /
``warehouse.get(...)`` are the raw accessors and
``group.read_at(node_id, entity_type, entity_key)`` the raw
node-addressed one (master/slave, active/active).

:class:`~repro.replication.quorum.QuorumGroup` is the one surface that
overrides ``read``: a quorum answer arrives later, so its STRONG read
returns a pending :class:`ReadResult` completed in place, and its
``serve(STRONG)`` raises :class:`ConsistencyUnavailable` — which is
why it does not declare STRONG.

The front door (:mod:`repro.frontdoor`) calls ``serve`` too, not
``read``: a ladder rung stamps its own :class:`ReadResult` once, with
the rung's level as the delivered level (a copy that holds less than
the rung promises is a refusal and a walk down the ladder, never a
relabel) and, deliberately, without the ``bound_violated`` check — see
:meth:`repro.frontdoor.ladder.Rung.serve`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.consistency import ConsistencyLevel
from repro.core.policy import Deadline
from repro.errors import ConsistencyPolicyError


class ConsistencyUnavailable(ConsistencyPolicyError):
    """The surface cannot serve the requested level and the request
    forbids degradation (``allow_degraded=False``)."""


def is_weaker(level: ConsistencyLevel, than: ConsistencyLevel) -> bool:
    """Whether ``level`` gives strictly weaker guarantees than ``than``
    (ranks by ``ConsistencyLevel.strength``).  A read is *degraded* when
    its delivered level is weaker than the requested one."""
    return level.strength > than.strength


def replica_level(requested: ConsistencyLevel) -> ConsistencyLevel:
    """The level a lagging replica read actually delivers: the requested
    level, floored at ``BOUNDED_STALENESS`` when the caller asked for
    something stronger than a replica can promise."""
    if requested is ConsistencyLevel.STRONG:
        return ConsistencyLevel.BOUNDED_STALENESS
    return requested


@dataclass(frozen=True)
class ReadRequest:
    """Everything a caller declares about one read.

    Attributes:
        level: Requested :class:`ConsistencyLevel`.  Defaults to
            ``STRONG`` — the caller who does not think about
            consistency gets the unapologetic semantics and pays for
            them, exactly the paper's framing of the default.
        max_staleness: Tolerated staleness in simulated time units;
            ``None`` means unbounded.  A surface that measures a larger
            staleness while serving marks the result
            ``bound_violated`` and bumps ``read.staleness_violations``.
        deadline: Optional :class:`~repro.core.policy.Deadline`; the
            front door rejects expired requests instead of serving them.
        tenant: Admission-control identity; empty string is the
            anonymous/default tenant.
        allow_degraded: Whether the caller accepts a weaker-than-
            requested answer.  ``False`` turns degradation into
            :class:`ConsistencyUnavailable` (or a rejection at the
            front door).
    """

    level: ConsistencyLevel = ConsistencyLevel.STRONG
    max_staleness: Optional[float] = None
    deadline: Optional[Deadline] = None
    tenant: str = ""
    allow_degraded: bool = True

    @classmethod
    def strong(cls, **kwargs: Any) -> "ReadRequest":
        return cls(level=ConsistencyLevel.STRONG, **kwargs)

    @classmethod
    def bounded(cls, max_staleness: float, **kwargs: Any) -> "ReadRequest":
        return cls(
            level=ConsistencyLevel.BOUNDED_STALENESS,
            max_staleness=max_staleness,
            **kwargs,
        )

    @classmethod
    def eventual(cls, **kwargs: Any) -> "ReadRequest":
        return cls(level=ConsistencyLevel.EVENTUAL, **kwargs)


class ReadResult:
    """One read's answer plus the truth about how it was served.

    Wraps the raw :class:`~repro.lsdb.rollup.EntityState` (or ``None``)
    and stamps what the infrastructure actually did: the delivered
    level, the staleness measured at serve time, whether the answer is
    degraded below the requested level, which physical unit (and, in a
    geo deployment, which site) served it, and — when the front door had
    to apologize — the apology token.

    The wrapper *unwraps transparently*: it compares equal to its
    value, is falsy when the value is ``None`` (or the read was
    rejected), and forwards attribute access to the value, so seed-era
    call sites reading ``result.fields["qty"]`` or ``result == state``
    keep working unchanged.
    """

    __slots__ = (
        "value",
        "requested_level",
        "delivered_level",
        "staleness",
        "degraded",
        "served_by",
        "site",
        "rejected",
        "reject_reason",
        "bound_violated",
        "apology",
    )

    def __init__(
        self,
        value: Any,
        *,
        requested_level: ConsistencyLevel,
        delivered_level: Optional[ConsistencyLevel],
        staleness: Optional[float] = 0.0,
        degraded: bool = False,
        served_by: str = "",
        site: str = "",
        rejected: bool = False,
        reject_reason: str = "",
        bound_violated: bool = False,
        apology: Any = None,
    ):
        self.value = value
        self.requested_level = requested_level
        self.delivered_level = delivered_level
        self.staleness = staleness
        self.degraded = degraded
        self.served_by = served_by
        self.site = site
        self.rejected = rejected
        self.reject_reason = reject_reason
        self.bound_violated = bound_violated
        self.apology = apology

    # ------------------------------------------------------------------ #
    # Transparent unwrap
    # ------------------------------------------------------------------ #

    def unwrap(self) -> Any:
        """The raw entity state (or ``None``)."""
        return self.value

    @property
    def ok(self) -> bool:
        """Served (possibly degraded) rather than rejected."""
        return not self.rejected

    def __bool__(self) -> bool:
        return self.value is not None and not self.rejected

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, ReadResult):
            return self.value == other.value
        return self.value == other

    # EntityState itself is unhashable (mutable dataclass); mirror that.
    __hash__ = None  # type: ignore[assignment]

    def __getattr__(self, name: str) -> Any:
        # Only called for names not in __slots__: forward to the value
        # so ``result.fields`` / ``result.live`` read like the state.
        value = object.__getattribute__(self, "value")
        if value is None:
            raise AttributeError(
                f"ReadResult has no attribute {name!r} (value is None)"
            )
        return getattr(value, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        delivered = self.delivered_level.value if self.delivered_level else None
        flags = []
        if self.degraded:
            flags.append("degraded")
        if self.bound_violated:
            flags.append("bound_violated")
        if self.rejected:
            flags.append(f"rejected:{self.reject_reason}")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return (
            f"ReadResult({self.value!r}, delivered={delivered}, "
            f"staleness={self.staleness}{suffix})"
        )


def deliver(
    value: Any,
    request: ReadRequest,
    delivered_level: ConsistencyLevel,
    *,
    staleness: Optional[float] = 0.0,
    served_by: str = "",
    site: str = "",
    metrics: Any = None,
) -> ReadResult:
    """Stamp one served read into a :class:`ReadResult`.

    Centralizes the two policy checks every surface owes the caller:

    * *degradation* — delivered weaker than requested is marked, and
      raises :class:`ConsistencyUnavailable` when the request forbids it;
    * *staleness bound* — measured staleness above
      ``request.max_staleness`` marks ``bound_violated`` and increments
      the ``read.staleness_violations`` counter (labelled by delivered
      level) on ``metrics``.
    """
    degraded = is_weaker(delivered_level, request.level)
    if degraded and not request.allow_degraded:
        raise ConsistencyUnavailable(
            f"read served at {delivered_level.value} but "
            f"{request.level.value} was required and degradation is not allowed"
        )
    result = ReadResult(
        value,
        requested_level=request.level,
        delivered_level=delivered_level,
        staleness=staleness,
        degraded=degraded,
        served_by=served_by,
        site=site,
    )
    if (
        request.max_staleness is not None
        and staleness is not None
        and staleness > request.max_staleness
    ):
        result.bound_violated = True
        if metrics is not None:
            metrics.counter(
                "read.staleness_violations", level=delivered_level.value
            ).inc()
    return result


#: What :meth:`ReadSurface.serve` returns: ``(state, delivered_level,
#: staleness, served_by, site)``.
Served = tuple[Any, ConsistencyLevel, Optional[float], str, str]
#: A liveness probe: ``True`` while the unit it watches is up.
Health = Callable[[], bool]
#: The :attr:`ReadSurface.levels` of a surface that answers every level
#: a point read can be promised at.
READ_LEVELS = (
    ConsistencyLevel.STRONG,
    ConsistencyLevel.BOUNDED_STALENESS,
    ConsistencyLevel.EVENTUAL,
)


class ReadSurface(ABC):
    """Anything that can answer a canonical read (see the module
    docstring): subclasses implement :meth:`serve`, callers use
    :meth:`read`."""

    #: Registry :meth:`read` counts ``read.staleness_violations`` in;
    #: surfaces bound to a simulator set it to the simulator's.
    metrics: Any = None
    #: The levels :meth:`serve` answers synchronously at the strength
    #: asked (on a quiesced surface), strongest first; asked for another,
    #: it delivers weaker or raises.  Every concrete surface declares it.
    levels: tuple[ConsistencyLevel, ...]
    #: Follower copies' refresh cadence, on a surface that ships on one.
    ship_interval: Optional[float] = None
    #: Events the furthest-behind follower has not applied, if counted.
    replication_lag_events: Optional[int] = None

    @abstractmethod
    def serve(
        self,
        entity_type: str,
        entity_key: str,
        level: ConsistencyLevel,
        *,
        site: Optional[str] = None,
    ) -> Served:
        """Pick the copy ``level`` selects and report what it honestly
        holds.  No request policy: a weaker ``delivered_level`` than
        ``level`` is reported, not raised."""

    def health(self) -> tuple[Optional[Health], Optional[Health]]:
        """``(strong, bounded)`` probes: whether the copy behind a STRONG,
        and a BOUNDED, answer is up (``None``: no unit to watch)."""
        return None, None

    def read(
        self,
        entity_type: str,
        entity_key: str,
        *,
        request: Optional[ReadRequest] = None,
        site: Optional[str] = None,
    ) -> ReadResult:
        """Serve at ``request.level`` and stamp the answer
        (``request=None`` means ``ReadRequest()``, i.e. STRONG).

        Raises:
            ConsistencyUnavailable: The surface delivered a weaker level
                and the request forbids degradation.
        """
        if request is None:
            request = ReadRequest()
        state, delivered, staleness, served_by, served_site = self.serve(
            entity_type, entity_key, request.level, site=site
        )
        return deliver(
            state,
            request,
            delivered,
            staleness=staleness,
            served_by=served_by,
            site=served_site,
            metrics=self.metrics,
        )
