"""Chaos soak parity: the hot path may change performance, never answers.

A soak with the read cache enabled must produce a report
**byte-identical** to the cache-off run on the same seed — the cache
serves revalidated (watermark-current) folds under chaos, so no
invariant, value, or network count may shift.  ``SoakConfig``'s hot-path
knob is deliberately excluded from the report's ``config`` dict to make
that comparison literal.
"""

from __future__ import annotations

from repro.chaos.soak import SoakConfig, report_json, run_soak

# Small but chaotic enough to exercise crashes, partitions and repair.
_BASE = dict(seed=11, duration=400.0, quiesce_grace=200.0)


class TestCacheChaosParity:
    def test_cache_on_report_is_byte_identical_to_cache_off(self):
        off = report_json(run_soak(SoakConfig(**_BASE)))
        on = report_json(run_soak(SoakConfig(**_BASE, read_cache=True)))
        assert on == off

    def test_cache_on_soak_is_deterministic(self):
        config = SoakConfig(**_BASE, read_cache=True)
        assert report_json(run_soak(config)) == report_json(run_soak(config))

    def test_cache_only_parity(self):
        """The same parity under the heavy profile's schedule: three
        crashes plus delay and slow-node faults, none of which the
        moderate schedule above draws."""
        heavy = dict(_BASE, profile="heavy")
        off = report_json(run_soak(SoakConfig(**heavy)))
        on = report_json(run_soak(SoakConfig(**heavy, read_cache=True)))
        assert on == off
