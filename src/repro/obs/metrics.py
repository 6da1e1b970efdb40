"""Counters, gauges, histograms and availability probes — the
measurement substrate.

The paper's principles are claims about *observable* inconsistency:
staleness windows (2.3), apology rates (2.9), replication lag and
convergence (section 1).  Before this module each experiment scraped
those numbers with bespoke probes; a :class:`MetricsRegistry` gives
every subsystem one place to register what it does (messages sent and
dropped, log appends, rollup folds, reorder-buffer depth, redeliveries,
per-replica lag, apologies issued), and gives experiments one place to
read from.

Determinism contract
--------------------
Everything here is driven by the simulator's virtual time and the
deterministic event order, and the report serialisation sorts all keys —
so two runs with the same seed produce **byte-identical**
:meth:`MetricsReport.to_json` output (asserted in
``tests/test_obs_metrics.py``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Sequence

#: A metric's identity: name plus sorted label pairs.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def percentile_of(sorted_samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile over pre-sorted samples (0 when empty).

    This is the single percentile implementation in the library —
    :class:`Histogram` delegates to it, and the experiments record their
    latencies into unlabelled histograms.
    """
    if not sorted_samples:
        return 0.0
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    rank = max(0, math.ceil(pct / 100 * len(sorted_samples)) - 1)
    return sorted_samples[rank]


def _key(name: str, labels: Mapping[str, Any]) -> MetricKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class Counter:
    """A monotonically increasing count (messages sent, appends, ...)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, str]):
        self.name = name
        self.labels = dict(labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A point-in-time level (reorder-buffer depth, replication lag)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: Mapping[str, str]):
        self.name = name
        self.labels = dict(labels)
        self.value: float = 0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def snapshot(self) -> dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """A sample distribution (staleness-at-read, hop latency, ...).

    Samples are kept verbatim — experiment scales are small enough that
    exact percentiles beat bucketing, and exactness is what makes the
    determinism contract byte-level.
    """

    __slots__ = ("name", "labels", "_samples", "_sorted")

    kind = "histogram"

    def __init__(self, name: str, labels: Mapping[str, str]):
        self.name = name
        self.labels = dict(labels)
        self._samples: list[float] = []
        self._sorted: Optional[list[float]] = None

    def record(self, value: float) -> None:
        """Add one sample."""
        self._samples.append(value)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def sum(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        return self.sum / len(self._samples) if self._samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def percentile(self, pct: float) -> float:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return percentile_of(self._sorted, pct)

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
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


class MetricsRegistry:
    """Get-or-create registry of named, labelled metrics.

    Every instrumented subsystem (network, scheduler, store, queue,
    replication scheme, apology ledger) holds an optional reference to
    one registry; ``None`` means "not instrumented" and costs a single
    branch on the hot path.

    Example:
        >>> registry = MetricsRegistry()
        >>> registry.counter("net.sent").inc()
        >>> registry.counter("net.sent").inc()
        >>> registry.value("net.sent")
        2
    """

    def __init__(self):
        self._metrics: dict[MetricKey, Any] = {}

    def _get_or_create(self, cls, name: str, labels: Mapping[str, Any]):
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, dict(key[1]))
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r}{dict(key[1])} is a {metric.kind}, "
                f"not a {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter named ``name`` with ``labels`` (created on first use)."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge named ``name`` with ``labels``."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram named ``name`` with ``labels``."""
        return self._get_or_create(Histogram, name, labels)

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter/gauge (0 if never touched)."""
        metric = self._metrics.get(_key(name, labels))
        return metric.value if metric is not None else 0

    def sum_values(self, name: str) -> float:
        """Sum of a counter/gauge across *all* label sets (e.g. total
        appends over every store)."""
        return sum(
            metric.value
            for (metric_name, _), metric in self._metrics.items()
            if metric_name == name and not isinstance(metric, Histogram)
        )

    def metrics(self) -> list[Any]:
        """Every registered metric, in deterministic (name, labels) order."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def report(self) -> "MetricsReport":
        """A frozen, serialisable snapshot of every metric."""
        return MetricsReport(
            [
                {
                    "name": metric.name,
                    "kind": metric.kind,
                    "labels": dict(metric.labels),
                    **metric.snapshot(),
                }
                for metric in self.metrics()
            ]
        )


class MetricsReport:
    """An immutable snapshot of a registry, renderable and diffable.

    ``to_json`` is byte-stable for a given registry state (sorted keys,
    fixed separators), which is what lets tests assert that two seeded
    runs measured *exactly* the same system behaviour.
    """

    def __init__(self, rows: Iterable[Mapping[str, Any]]):
        self.rows = [dict(row) for row in rows]

    def to_dict(self) -> dict[str, Any]:
        return {"metrics": self.rows}

    def to_json(self) -> str:
        """Canonical JSON (byte-identical across identical runs)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def get(self, name: str, **labels: Any) -> Optional[dict[str, Any]]:
        """The snapshot row for one metric (``None`` if absent)."""
        wanted = {k: str(v) for k, v in labels.items()}
        for row in self.rows:
            if row["name"] == name and row["labels"] == wanted:
                return row
        return None

    def render(self) -> str:
        """An aligned text table, one metric per line."""
        lines = []
        for row in self.rows:
            labels = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
            label_part = f"{{{labels}}}" if labels else ""
            if row["kind"] == "histogram":
                detail = (
                    f"count={row['count']} mean={row['mean']:.3g} "
                    f"p50={row['p50']:.3g} p95={row['p95']:.3g} "
                    f"p99={row['p99']:.3g} max={row['max']:.3g}"
                )
            else:
                detail = f"{row['value']:g}"
            lines.append(f"{row['name']}{label_part:<24} {detail}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rows)
