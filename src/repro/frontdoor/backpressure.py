"""Backpressure signals: live overload indicators the system already has.

The simulator and the replication schemes expose the three signals the
ROADMAP names, and this module merely reads them:

* **event-loop queue depth** — ``sim.pending``, the O(1) live-event
  count of the scheduler's heap;
* **replication lag** — per-scheme backlog gauges
  (``MasterSlaveGroup.replication_lag_events``, the worst slave's
  backlog; ``GeoReplicaGroup.replication_lag_events``;
  ``WarehouseExtract.lag_events``);
* **rebalance in progress** — the cluster's
  :class:`~repro.partition.rebalance.Rebalancer` mid-run.

A :class:`BackpressureMonitor` holds named :class:`BackpressureSignal`
probes; the front door consults :meth:`BackpressureMonitor.tripped`
before serving the strong rung and degrades when any signal is over its
limit.  Probes are pure reads of simulator state, so the monitor adds
no events and cannot perturb determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass
class BackpressureSignal:
    """One named overload probe with its trip limit."""

    name: str
    probe: Callable[[], float]
    limit: float

    def tripped(self) -> bool:
        return float(self.probe()) > self.limit


class BackpressureMonitor:
    """A set of overload signals consulted per read.

    Args:
        metrics: Optional registry; every trip counts into
            ``frontdoor.backpressure`` labelled by signal name.
    """

    def __init__(self, metrics=None):
        self.signals: list[BackpressureSignal] = []
        self.metrics = metrics

    def add(
        self, name: str, probe: Callable[[], float], limit: float
    ) -> "BackpressureMonitor":
        """Register a signal; returns self for chaining."""
        self.signals.append(BackpressureSignal(name, probe, limit))
        return self

    def tripped(self) -> list[str]:
        """Names of every signal currently over its limit."""
        over: list[str] = []
        for signal in self.signals:
            if signal.tripped():
                over.append(signal.name)
                if self.metrics is not None:
                    self.metrics.counter(
                        "frontdoor.backpressure", signal=signal.name
                    ).inc()
        return over
