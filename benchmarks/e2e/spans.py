"""Stack-based span recorder for the traced run.

The harness wraps the entry points of each repo layer *on the built
instances* (see ``instrument.py``) with :meth:`SpanRecorder.wrap`.  The
driver is one thread, so the span stack is the causal parent chain: a
span's parent is whatever was on top of the stack when it opened.

Self time is accumulated as spans close — a span's duration minus the
part its child spans cover — into one ``[count, self_ns, units]`` cell
per layer.  Keeping every span of a 200k-op run as a tuple would cost
hundreds of MB and make the traced run measure the garbage collector,
so full ``(layer, start, end, parent, op)`` tuples are kept only while
``op < keep_ops`` (the trace file's "first N ops").

The repo's own ``repro.obs`` tracer is deliberately not used: enabling
it switches ``ReplicaNode.ship_events`` off the ``ColumnFrame`` fast
path, i.e. it changes the program being measured.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns
from typing import Any, Callable, Optional

#: Span tuple field order in memory and in the trace file.
SPAN_FIELDS = ("layer", "start_ns", "end_ns", "parent", "op")


class SpanRecorder:
    """Collects per-layer self time and the first ops' span trees.

    Attributes:
        cells: ``layer -> [count, self_ns, units]``, updated as spans
            close (``units`` is work done, e.g. rows folded).
        spans: Kept span tuples (:data:`SPAN_FIELDS`); ``parent`` is an
            index into this list or ``-1`` for a root.
        op: The client op the driver is executing (``-1`` between ops:
            shipping, apply, extracts — background work).
        keep_ops: Spans are kept as tuples while ``op < keep_ops``.
    """

    def __init__(self, keep_ops: int = 1000):
        self.cells: dict[str, list[int]] = {}
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.op = -1
        self.keep_ops = keep_ops
        self.keeping = True
        # Parallel stacks: child-covered ns, and the kept-span index
        # (or -1) of every open span.
        self._child_ns: list[int] = []
        self._kept: list[int] = []
        self._layers: list[str] = []

    def wrap(
        self,
        layer: str | Callable[[list[str]], str],
        fn: Callable[..., Any],
        units: Optional[Callable[[tuple], int]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as a span of ``layer``.

        ``layer`` may be a callable taking the open layers (outermost
        first) and returning the layer name — for callbacks whose owner
        depends on who is calling (the store's append bookkeeping runs
        under local ingest and under remote apply alike).  ``units``
        maps the call's positional arguments to an amount of work that
        is summed into the layer's cell.
        """
        cells = self.cells
        child_ns = self._child_ns
        kept = self._kept
        layers = self._layers
        spans = self.spans
        clock = perf_counter_ns
        dynamic = callable(layer)
        if not dynamic:
            cells.setdefault(layer, [0, 0, 0])

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            name = layer(layers) if dynamic else layer
            if self.keeping:
                parent = kept[-1] if kept else -1
                index = len(spans)
                spans.append((name, 0, 0, parent, self.op))
            else:
                index = -1
            child_ns.append(0)
            kept.append(index)
            layers.append(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                layers.pop()
                kept.pop()
                covered = child_ns.pop()
                cell = cells.get(name)
                if cell is None:
                    cell = cells[name] = [0, 0, 0]
                cell[0] += 1
                cell[1] += elapsed - covered
                if units is not None:
                    cell[2] += units(args)
                if child_ns:
                    child_ns[-1] += elapsed
                if index >= 0:
                    _, _, _, parent, op = spans[index]
                    spans[index] = (name, start, end, parent, op)

        return span

    def begin_op(self, op: int) -> None:
        """The driver is about to execute client op ``op``."""
        self.op = op
        if op >= self.keep_ops:
            self.keeping = False

    def end_op(self) -> None:
        self.op = -1

    def self_seconds(self) -> dict[str, float]:
        """``layer -> self time in seconds`` over every closed span."""
        return {layer: cell[1] / 1e9 for layer, cell in self.cells.items()}

    def counts(self) -> dict[str, int]:
        """``layer -> closed spans``."""
        return {layer: cell[0] for layer, cell in self.cells.items()}

    def units(self) -> dict[str, int]:
        """``layer -> summed work units`` (0 where none were declared)."""
        return {layer: cell[2] for layer, cell in self.cells.items()}


def self_times(
    spans: list[tuple[str, int, int, int, int]]
) -> dict[str, int]:
    """Per-layer self time (ns) recomputed from span tuples.

    The reference the recorder's running totals are tested against, and
    what a reader of a trace file would compute: each span's duration
    minus the durations of its direct children.
    """
    covered = [0] * len(spans)
    for _layer, start, end, parent, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, int] = {}
    for index, (layer, start, end, _parent, _op) in enumerate(spans):
        totals[layer] = totals.get(layer, 0) + (end - start) - covered[index]
    return totals
