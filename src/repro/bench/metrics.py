"""Measurement utilities for the experiment suite.

Latency percentiles and availability probes — the numbers the paper's
prose claims are about (response time, availability, apology rates,
convergence time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.metrics import Histogram


class LatencyRecorder(Histogram):
    """Collects latency samples and reports percentiles.

    An unlabelled :class:`repro.obs.metrics.Histogram` — the same
    samples, count, mean, maximum and nearest-rank percentiles, so a
    benchmark table and a metrics report computed over the same samples
    can never disagree — plus merging and the table-row shortcuts.

    Example:
        >>> recorder = LatencyRecorder()
        >>> for value in [1.0, 2.0, 3.0, 4.0]:
        ...     recorder.record(value)
        >>> recorder.percentile(50)
        2.0
        >>> recorder.mean
        2.5
    """

    __slots__ = ()

    def __init__(self, name: str = "latency"):
        super().__init__(name, {})

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's samples into this one."""
        self._samples.extend(other._samples)
        self._sorted = None

    @classmethod
    def merged(
        cls, recorders: Iterable["LatencyRecorder"], name: str = "merged"
    ) -> "LatencyRecorder":
        """A new recorder holding every sample of ``recorders`` (e.g.
        per-node recorders combined into one cluster-wide summary)."""
        result = cls(name=name)
        for recorder in recorders:
            result.merge(recorder)
        return result

    @property
    def p50(self) -> float:
        """Median."""
        return self.percentile(50)

    @property
    def p95(self) -> float:
        """95th percentile."""
        return self.percentile(95)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.percentile(99)

    def summary(self) -> dict[str, float]:
        """``{count, mean, p50, p95, p99, max}`` for table rows."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


@dataclass
class AvailabilityProbe:
    """Success/failure accounting for an operation stream.

    ``attempted``/``succeeded`` counters, with a separate window for
    operations issued during a failure (partition/crash), so a report
    can state availability *during* the failure — the CAP measurement
    of experiment E1.
    """

    attempted: int = 0
    succeeded: int = 0
    attempted_during_failure: int = 0
    succeeded_during_failure: int = 0

    def record(self, ok: bool, during_failure: bool = False) -> None:
        """Count one operation outcome."""
        self.attempted += 1
        if ok:
            self.succeeded += 1
        if during_failure:
            self.attempted_during_failure += 1
            if ok:
                self.succeeded_during_failure += 1

    @property
    def availability(self) -> float:
        """Overall success fraction."""
        return self.succeeded / self.attempted if self.attempted else 1.0

    @property
    def availability_during_failure(self) -> float:
        """Success fraction among operations issued during the failure."""
        if not self.attempted_during_failure:
            return 1.0
        return self.succeeded_during_failure / self.attempted_during_failure
