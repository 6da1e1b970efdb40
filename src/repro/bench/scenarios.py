"""Pluggable traffic scenarios: the ROADMAP's skewed, time-varying suite.

A *scenario* is a named, seeded recipe for a realistic traffic shape —
Zipfian hot keys, a flash crowd, a diurnal hot-set rotation — compiled
into one deterministic operation schedule (interleaved reads and writes
with virtual timestamps).  Scenarios register themselves in a module
registry (the step-registry/plugin shape): benchmarks and experiments
look them up by name, and adding a scenario is one decorated factory,
no harness changes.

    >>> from repro.bench import scenarios
    >>> spec = scenarios.get("zipf_hot")
    >>> ops = spec.ops(seed=7)
    >>> ops == spec.ops(seed=7)   # same seed, same schedule — always
    True

Every schedule draws from one :class:`~repro.sim.rng.SeededRNG`, so the
same seed reproduces the same byte-for-byte operation list — the
contract the benchmark determinism checks ride on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

from repro.bench.workloads import (
    FlashCrowdChooser,
    KeyChooser,
    RotatingHotSetChooser,
)
from repro.sim.rng import SeededRNG, poisson_arrivals


@dataclass(frozen=True)
class Op:
    """One scheduled operation of a compiled scenario."""

    at: float
    kind: str  # "read" | "write"
    key: str
    index: int = 0


@dataclass(frozen=True)
class Scenario:
    """A named traffic shape, compiled on demand into an op schedule.

    Attributes:
        name: Registry name.
        description: One line for reports.
        entities: Key-population size.
        duration: Schedule length in virtual time.
        write_rate: Mean writes per virtual time unit (Poisson).
        read_rate: Mean reads per virtual time unit (Poisson).
        theta: Zipf skew of both streams.
        hot_set_size: How many keys count as "the hot set" for
            hit-ratio accounting (time-varying scenarios evaluate
            membership at each op's timestamp).
        flash_start: Fraction of ``duration`` at which a flash crowd
            arrives (``None`` = no flash crowd).
        flash_share: Fraction of post-flash draws the star key absorbs.
        rotation_period: Hot-set rotation period (``None`` = static).
        rotation_stride: Ranks shifted per rotation phase.
    """

    name: str
    description: str
    entities: int = 10_000
    duration: float = 400.0
    write_rate: float = 40.0
    read_rate: float = 60.0
    theta: float = 0.99
    hot_set_size: int = 16
    flash_start: Optional[float] = None
    flash_share: float = 0.3
    rotation_period: Optional[float] = None
    rotation_stride: Optional[int] = None

    # -------------------------------------------------------------- #
    # Compilation
    # -------------------------------------------------------------- #

    def keys(self) -> list[str]:
        """The key population (index 0 hottest under the base skew)."""
        return [f"e{index}" for index in range(self.entities)]

    def chooser(self, rng: SeededRNG, keys: Sequence[str]):
        """The key chooser this scenario's shape calls for — any object
        with ``choose(at)`` / ``hot_keys_at(at, k)``."""
        if self.flash_start is not None:
            return FlashCrowdChooser(
                rng,
                keys,
                self.theta,
                star_index=min(len(keys) - 1, self.entities // 2),
                start=self.flash_start * self.duration,
                share=self.flash_share,
            )
        if self.rotation_period is not None:
            return RotatingHotSetChooser(
                rng,
                keys,
                self.theta,
                period=self.rotation_period,
                stride=self.rotation_stride,
            )
        return KeyChooser(rng, keys, self.theta)

    def ops(self, seed: int = 0) -> list[Op]:
        """Compile the scenario into one deterministic op schedule.

        Writes and reads are two Poisson streams over the same
        time-varying chooser (reads chase the same hot set writes
        heat).  The merged list is sorted by time with a stable
        ``(time, stream, index)`` tie-break, so identical seeds yield
        identical schedules.
        """
        rng = SeededRNG(seed)
        keys = self.keys()
        chooser = self.chooser(rng, keys)
        entries: list[tuple[float, int, int, str, str]] = []
        for stream_tag, kind, rate in (
            (0, "write", self.write_rate),
            (1, "read", self.read_rate),
        ):
            for index, at in enumerate(
                poisson_arrivals(rng, rate, self.duration)
            ):
                entries.append((at, stream_tag, index, kind, chooser.choose(at)))
        entries.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        return [
            Op(at=at, kind=kind, key=key, index=index)
            for index, (at, _tag, _i, kind, key) in enumerate(entries)
        ]

    def hot_keys_at(self, at: float, seed: int = 0) -> tuple[str, ...]:
        """The instantaneous hot set at time ``at`` (for hit-ratio
        accounting).  Pure function of the scenario shape — choosers
        compute membership without consuming randomness."""
        rng = SeededRNG(seed)  # choosers require a stream; unused here
        keys = self.keys()
        return self.chooser(rng, keys).hot_keys_at(at, self.hot_set_size)

    def phase_key(self, at: float) -> Any:
        """A hashable phase identifier: ``hot_keys_at`` is constant
        within one phase, so per-op consumers can memoise the hot set
        by this key instead of rebuilding a chooser per call."""
        if self.flash_start is not None:
            return at >= self.flash_start * self.duration
        if self.rotation_period is not None:
            return int(at / self.rotation_period)
        return 0

    def scaled(self, factor: float) -> "Scenario":
        """A quick-mode variant: same shape, ``factor`` of the volume
        (population and duration shrink together so the skew and the
        time-varying structure survive)."""
        return replace(
            self,
            entities=max(64, int(self.entities * factor)),
            duration=max(50.0, self.duration * factor),
            rotation_period=(
                None
                if self.rotation_period is None
                else max(10.0, self.rotation_period * factor)
            ),
        )


# ------------------------------------------------------------------ #
# Registry
# ------------------------------------------------------------------ #

_REGISTRY: dict[str, Callable[[], Scenario]] = {}


def register(factory: Callable[[], Scenario]) -> Callable[[], Scenario]:
    """Register a scenario factory under its scenario's name (the
    plugin hook: decorate a zero-argument factory)."""
    spec = factory()
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} already registered")
    _REGISTRY[spec.name] = factory
    return factory


def get(name: str) -> Scenario:
    """Look a scenario up by name.

    Raises:
        KeyError: Unknown name (the message lists what exists).
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {', '.join(names())}"
        )
    return factory()


def names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


# ------------------------------------------------------------------ #
# The stock suite (ROADMAP: Zipfian hot keys, flash crowd, diurnal)
# ------------------------------------------------------------------ #


@register
def zipf_mild() -> Scenario:
    """θ=0.5: noticeable but gentle skew — the cache's worst realistic
    case (traffic spreads wide, hit ratios are earned, not given)."""
    return Scenario(
        name="zipf_mild",
        description="Zipfian keys at theta=0.5 (mild skew)",
        theta=0.5,
    )


@register
def zipf_hot() -> Scenario:
    """θ=0.99: the classic YCSB-style hot-key skew — a handful of
    entities absorb most traffic.  The recorded hot-path claim's
    headline scenario."""
    return Scenario(
        name="zipf_hot",
        description="Zipfian keys at theta=0.99 (hot-key skew)",
        theta=0.99,
    )


@register
def flash_crowd() -> Scenario:
    """Mid-run, one previously cold entity jumps to 30% of all traffic
    — the ROADMAP's "one entity suddenly taking 30% of writes"."""
    return Scenario(
        name="flash_crowd",
        description="one cold entity jumps to 30% of traffic mid-run",
        theta=0.99,
        flash_start=0.5,
        flash_share=0.3,
    )


@register
def diurnal() -> Scenario:
    """The hot set rotates through the population on a period — a
    compressed diurnal curve (different entities are hot at different
    times of the virtual day)."""
    return Scenario(
        name="diurnal",
        description="hot set rotates through the population (diurnal curve)",
        theta=0.99,
        rotation_period=100.0,
    )
