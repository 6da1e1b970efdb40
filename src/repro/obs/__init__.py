"""Observability: metrics registry and causal tracing over virtual time.

The paper's principles are claims about observable inconsistency —
staleness windows (2.3), apology rates (2.9), replication lag and
eventual convergence (section 1).  This package is the first-class
measurement layer those claims are read from:

* :class:`MetricsRegistry` — counters, gauges and histograms that the
  network, scheduler, stores, queues and replication schemes register
  into; :class:`MetricsReport` snapshots it deterministically.
* :class:`Tracer` / :class:`Span` — causal trace spans carried by log
  events, queued messages and scheduled callbacks, so a write's journey
  (origin append → network hop → remote apply → index refresh) is
  reconstructable as a tree in virtual time.
* :mod:`repro.obs.export` — JSON payloads (schema-pinned) and text
  timelines of the span trees.

Enable both through the cluster facade
(``Cluster.build().with_tracing()``) or by passing ``metrics=`` /
``tracer=`` to any instrumented component.
"""

from repro.obs.metrics import (
    AvailabilityProbe,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsReport,
    percentile_of,
)
from repro.obs.trace import Span, Tracer
from repro.obs.export import (
    render_timeline,
    trace_json,
    trace_payload,
    validate_trace,
)

__all__ = [
    "AvailabilityProbe",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsReport",
    "percentile_of",
    "Span",
    "Tracer",
    "render_timeline",
    "trace_json",
    "trace_payload",
    "validate_trace",
]
