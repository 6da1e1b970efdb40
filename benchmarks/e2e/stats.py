"""Percentiles, spread and verdicts — the measuring rules in one place."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """The requested percentile has fewer than :data:`MIN_SAMPLES_BEYOND`
    samples beyond it — it would be a handful of outliers, not a tail."""


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 1) of an ascending sequence.

    Raises:
        TooFewSamples: Fewer than :data:`MIN_SAMPLES_BEYOND` samples lie
            beyond the percentile.
    """
    count = len(sorted_values)
    rank = math.ceil(q * count)
    if count - rank < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {count} samples has only {count - rank} "
            f"beyond it; {MIN_SAMPLES_BEYOND} are required"
        )
    return sorted_values[rank - 1]


def percentile_or_none(sorted_values: Sequence[float], q: float) -> Optional[float]:
    """:func:`percentile`, or ``None`` where it refuses."""
    try:
        return percentile(sorted_values, q)
    except TooFewSamples:
        return None


def per_op_median(rounds: Sequence[Sequence[float]]) -> list[float]:
    """Element-wise median of equally long sample sequences.

    Rounds of one seed execute the same operations in the same order,
    so position ``i`` of every round timed the same operation; its
    median over the rounds keeps what the operation costs and votes out
    what a noisy neighbour added to it in one round or another.
    """
    lengths = {len(samples) for samples in rounds}
    if len(lengths) != 1:
        raise ValueError(f"rounds differ in length: {sorted(lengths)}")
    middle = len(rounds) // 2
    if len(rounds) % 2:
        return [sorted(column)[middle] for column in zip(*rounds)]
    return [
        (column[middle - 1] + column[middle]) / 2
        for column in map(sorted, zip(*rounds))
    ]


def summarize(values: Sequence[float]) -> dict[str, Optional[float]]:
    """Median, quartiles and relative spread of repeated measurements.

    ``spread`` is the inter-quartile distance as a share of the median —
    the same figure the benchmark driver holds against each bound.  It
    is ``None`` for a single run (unknown, not zero), so a verdict that
    needs it comes out ``unresolved``.
    """
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": median, "q1": median, "q3": median,
                "spread": None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def steady(summary: dict[str, float], bound: float) -> bool:
    """Whether the measured spread is known and within ``bound``."""
    return summary["spread"] is not None and summary["spread"] <= bound


def format_spread(summary: dict[str, float]) -> str:
    spread = summary["spread"]
    return "unknown (1 run)" if spread is None else f"{spread:.2%}"


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it improved)."""
    if not base:
        return 0.0
    change = (new - base) / base
    return -change if better == "higher" else change


def verdict(
    base: dict[str, float], new: dict[str, float], better: str, bound: float
) -> str:
    """``improved`` / ``within-bound`` / ``regressed`` / ``unresolved``.

    A metric whose run-to-run spread on either side is wider than its
    bound cannot tell a change from noise: it is ``unresolved``, never
    ``unchanged``.
    """
    if not steady(base, bound) or not steady(new, bound):
        return "unresolved"
    worse = worsening(base["median"], new["median"], better)
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "within-bound"
