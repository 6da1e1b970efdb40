"""No read cache: every read answers from the store's own fold.

A store's current state is the rollup of its log (paper section 3.1),
and :class:`~repro.lsdb.store.LSDBStore` keeps that rollup
incrementally, so a read of a hot entity is one dict probe, which no
snapshot cache in front of it can beat.  ``LSDBStore.read`` and
``serve`` answer ``store.get(...)`` at staleness 0 (DESIGN.md section
16).

The module stays importable because the end-to-end benchmark harness
wraps and restores the ``deliver`` name here.
"""

from repro.core.readpath import deliver  # noqa: F401
