"""Per-tenant admission control: token buckets and quotas.

The front door's first valve (paper section 2.9's "serve fast" only
works if one tenant cannot monopolise the capacity everyone shares).
Each tenant gets a :class:`TokenBucket` refilled on *virtual* time —
the simulator's clock, never the wall clock — so seeded runs admit and
throttle byte-identically.

Admission is level-aware: a degraded read is cheaper than a strong one
(it lands on a replica or a snapshot, not the master), so the
:class:`AdmissionController` charges per-level costs.  Under overload a
tenant whose strong-read budget is gone can still afford the degraded
rungs — admission itself pushes traffic down the
:class:`~repro.frontdoor.ladder.DegradeLadder` before anything is
rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission budget.

    Args:
        rate: Tokens refilled per unit of virtual time
            (``math.inf`` = unmetered).
        burst: Bucket capacity — the largest same-instant burst the
            tenant may spend.
    """

    rate: float = math.inf
    burst: float = math.inf


class TokenBucket:
    """A deterministic token bucket on the simulator clock.

    Tokens refill lazily at :attr:`rate` per unit of virtual time, up
    to :attr:`burst`.  All arithmetic is pure float math over ``clock()``
    readings, so two seeded runs make identical admit/deny decisions.
    """

    def __init__(self, rate: float, burst: float, clock: Callable[[], float]):
        if rate < 0 or burst < 0:
            raise ValueError("rate and burst must be non-negative")
        self.rate = rate
        self.burst = burst
        self.clock = clock
        self.tokens = burst
        self._last = clock()

    def _refill(self) -> None:
        now = self.clock()
        if now > self._last:
            if self.rate == math.inf:
                self.tokens = self.burst
            else:
                self.tokens = min(
                    self.burst, self.tokens + (now - self._last) * self.rate
                )
            self._last = now

    def try_take(self, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if available; ``False`` means throttled."""
        if self.tokens == math.inf:
            # An infinite burst (the unmetered default) stays infinite
            # whatever is spent: admit with no clock read and no refill.
            return True
        self._refill()
        if self.tokens >= tokens:
            self.tokens -= tokens
            return True
        return False


class AdmissionController:
    """Per-tenant rate limiting with per-level read costs.

    Args:
        clock: Virtual-time source (``lambda: sim.now``).
        default_quota: Quota for tenants with no explicit entry; the
            default is unmetered, so a door with no quotas configured
            admits everything.
        quotas: Explicit per-tenant quotas.
        metrics: Optional registry; admits/throttles count into
            ``frontdoor.admitted`` / ``frontdoor.throttled`` labelled
            by tenant.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        default_quota: Optional[TenantQuota] = None,
        quotas: Optional[dict[str, TenantQuota]] = None,
        metrics=None,
    ):
        self.clock = clock
        self.default_quota = (
            default_quota if default_quota is not None else TenantQuota()
        )
        self.quotas = dict(quotas or {})
        self.metrics = metrics
        self._buckets: dict[str, TokenBucket] = {}

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Install (or replace) one tenant's quota."""
        self.quotas[tenant] = quota
        self._buckets.pop(tenant, None)

    def try_admit(self, tenant: str, cost: float = 1.0) -> bool:
        """Charge ``cost`` tokens against ``tenant``'s bucket (built on
        the tenant's first read).  An unmetered bucket admits without a
        call: its infinite burst stays infinite whatever is spent."""
        bucket = self._buckets.get(tenant)
        if bucket is None:
            quota = self.quotas.get(tenant, self.default_quota)
            bucket = TokenBucket(quota.rate, quota.burst, self.clock)
            self._buckets[tenant] = bucket
        admitted = bucket.tokens == math.inf or bucket.try_take(cost)
        if self.metrics is not None:
            name = "frontdoor.admitted" if admitted else "frontdoor.throttled"
            self.metrics.counter(name, tenant=tenant or "default").inc()
        return admitted
