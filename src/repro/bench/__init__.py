"""Workload generation, metrics and reporting for the experiment suite
(deliverable (d): one bench target per claim, DESIGN.md section 3)."""

from repro.bench.metrics import AvailabilityProbe, LatencyRecorder
from repro.bench.report import ExperimentReport, format_table
from repro.bench.workloads import (
    Arrival,
    FlashCrowdChooser,
    KeyChooser,
    MixChooser,
    RotatingHotSetChooser,
    open_loop_arrivals,
    shuffled_within_window,
)

__all__ = [
    "AvailabilityProbe",
    "LatencyRecorder",
    "ExperimentReport",
    "format_table",
    "Arrival",
    "FlashCrowdChooser",
    "KeyChooser",
    "MixChooser",
    "RotatingHotSetChooser",
    "open_loop_arrivals",
    "shuffled_within_window",
]
