"""Wraps each layer's entry points on one built cluster, and unwraps.

Instance attributes shadow the class's methods, so the wrappers exist
only on the objects of the cluster under test: nothing under ``src/`` is
edited and no class is patched.  The one module-level function on the
read path, ``readpath.deliver``, is wrapped in every loaded ``repro``
module that imported it by name, and put back by :meth:`restore`.

Entry points are looked up tolerantly: a later PR that deletes, say,
``apply_remote_batch`` must not break the ruler it is measured with.
``trace.entry_points`` reports how many were found, so a silent loss of
coverage shows as a changed count.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Optional

from spans import SpanRecorder

#: Span name -> the per-layer self-time metric it is summed into.
#: Every span name the harness opens is listed, so the metrics add up to
#: the traced wall by construction.
SELF_TIME_METRIC = {
    "sim.run": "sim.self_s",
    "net.send": "net.self_s",
    "net.send_batch": "net.self_s",
    "net.deliver": "net.self_s",
    "gateway.flush": "net.self_s",
    "replica.send_batch": "net.self_s",
    "door.read": "door.self_s",
    "tx": "tx.self_s",
    "store.apply_delta": "store.ingest_self_s",
    "store.on_append.local": "store.ingest_self_s",
    "store.apply_remote": "store.apply_self_s",
    "store.apply_remote_batch": "store.apply_self_s",
    "store.apply_remote_frame": "store.apply_self_s",
    "store.on_append.remote": "store.apply_self_s",
    "store.get": "store.get_s",
    "store.read": "store.get_s",
    "log.append": "log.append_s",
    "log.append_row": "log.append_s",
    "log.extend_frame": "log.append_s",
    "fold.fold": "fold.self_s",
    "fold.fold_into": "fold.self_s",
    "fold.fold_slice_into": "fold.self_s",
    "cache.lookup": "cache.self_s",
    "cache.read": "cache.self_s",
    "replica.ship_events": "ship.self_s",
    "replica.handle_message": "ship.self_s",
    "replica.probe": "ship.self_s",
    "scheme.ship_round": "ship.self_s",
    "scheme.gossip_round": "ship.self_s",
    "scheme.read": "scheme.read_self_s",
    "scheme.write": "scheme.write_self_s",
    "readpath.deliver": "readpath.deliver_s",
    "warehouse.extract": "warehouse.self_s",
    "warehouse.read": "warehouse.self_s",
    "driver.op": "driver.self_s",
    "driver.sample": "driver.self_s",
}


def _on_append_owner(open_layers: list[str]) -> str:
    """The store's append bookkeeping runs inside the log's append, for
    local ingest and remote apply alike: charge it to whichever store
    entry point is open."""
    for layer in reversed(open_layers):
        if layer.startswith("store.apply_remote"):
            return "store.on_append.remote"
        if layer == "store.apply_delta":
            return "store.on_append.local"
    return "store.on_append.local"


def _second_len(args: tuple) -> int:
    """Work units of ``fn(x, rows, ...)``: how many rows."""
    return len(args[1])


def replica_nodes(cluster: Any) -> list[Any]:
    """Every replica node of the cluster's scheme, authority first."""
    scheme = cluster.replication
    if hasattr(scheme, "replica_list"):
        return scheme.replica_list()
    return [scheme.master, *scheme.slaves.values()]


class Instrumentation:
    """The wrappers installed on one cluster, and how to remove them."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.entry_points = 0
        self.lag_events_max = 0
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # Primitive: shadow one attribute with a span
    # ------------------------------------------------------------------ #

    def wrap(
        self,
        owner: Any,
        attr: str,
        span: Any,
        units: Optional[Callable[[tuple], int]] = None,
    ) -> None:
        """Shadow ``owner.attr`` with a span-recording wrapper, if it
        exists."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        self.replace(owner, attr, self.recorder.wrap(span, original, units))
        self.entry_points += 1

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        namespace = vars(owner)
        if attr in namespace:
            previous = namespace[attr]
            self._undo.append(lambda: setattr(owner, attr, previous))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Remove every wrapper (idempotent)."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------ #
    # The cluster's layers
    # ------------------------------------------------------------------ #

    def install(self, cluster: Any) -> None:
        wrap = self.wrap
        wrap(cluster.sim, "run", "sim.run")

        network = cluster.network
        wrap(network, "send", "net.send")
        wrap(network, "send_batch", "net.send_batch")
        wrap(network, "_deliver", "net.deliver")

        wrap(cluster.front_door, "read", "door.read")

        scheme = cluster.replication
        wrap(scheme, "read", "scheme.read")
        if cluster.transactions is None:
            # Without a transaction manager the scheme's own write call
            # is the client's entry point.
            wrap(scheme, "write_delta", "scheme.write")
        wrap(scheme, "_anti_entropy_round", "scheme.gossip_round")
        self._wrap_ship_round(scheme)
        for gateway in getattr(scheme, "gateways", {}).values():
            wrap(gateway, "flush", "gateway.flush")

        for node in replica_nodes(cluster):
            wrap(node, "ship_events", "replica.ship_events", _second_len)
            wrap(node, "handle_message", "replica.handle_message")
            wrap(node, "probe", "replica.probe")
            wrap(node, "send_batch", "replica.send_batch")
            self._wrap_store(node.store)

        for cache in cluster.read_caches:
            wrap(cache, "lookup", "cache.lookup")
            wrap(cache, "read", "cache.read")

        warehouse = cluster.warehouse
        if warehouse is not None:
            wrap(warehouse, "_extract", "warehouse.extract")
            wrap(warehouse, "read", "warehouse.read")

        self._wrap_deliver()
        self._rebind_pending(cluster.sim)

    def _wrap_store(self, store: Any) -> None:
        wrap = self.wrap
        wrap(store, "apply_delta", "store.apply_delta")
        wrap(store, "apply_remote", "store.apply_remote")
        wrap(store, "apply_remote_batch", "store.apply_remote_batch")
        wrap(store, "apply_remote_frame", "store.apply_remote_frame")
        wrap(store, "get", "store.get")
        wrap(store, "read", "store.read")
        log = store.log
        wrap(log, "append", "log.append")
        wrap(log, "append_row", "log.append_row")
        wrap(log, "extend_frame", "log.extend_frame")
        rollup = store.rollup
        # fold() on a slice delegates to fold_slice_into, which counts
        # the rows; only the outermost call adds units.
        wrap(rollup, "fold", "fold.fold")
        wrap(rollup, "fold_into", "fold.fold_into", lambda args: 1)
        wrap(rollup, "fold_slice_into", "fold.fold_slice_into", _second_len)
        # The store's bookkeeping is a subscriber the log calls from
        # inside its append; without a span of its own it would be
        # booked as log time.
        subscribers = getattr(log, "_columnar", None)
        if subscribers:
            previous = list(subscribers)
            record = self.recorder.wrap
            subscribers[:] = [
                (record(_on_append_owner, on_row), record(_on_append_owner, on_batch))
                for on_row, on_batch in previous
            ]
            self._undo.append(lambda: subscribers.__setitem__(slice(None), previous))
            self.entry_points += 1

    def _wrap_ship_round(self, scheme: Any) -> None:
        """The shipping round, preceded by a sample of the backlog it is
        about to ship (``ship.lag_events_max``)."""
        original = getattr(scheme, "_ship_round", None)
        if original is None:
            return
        if hasattr(scheme, "slave_lag_events"):
            def lag() -> int:
                return max(scheme.slave_lag_events(s) for s in scheme.slaves)
        else:
            def lag() -> int:
                return scheme.replication_lag_events

        def sample() -> None:
            self.lag_events_max = max(self.lag_events_max, lag())

        sample_span = self.recorder.wrap("driver.sample", sample)
        round_span = self.recorder.wrap("scheme.ship_round", original)

        def ship_round() -> Any:
            sample_span()
            return round_span()

        self.replace(scheme, "_ship_round", ship_round)
        self.entry_points += 1

    def _wrap_deliver(self) -> None:
        readpath = sys.modules["repro.core.readpath"]
        original = readpath.deliver
        span = self.recorder.wrap("readpath.deliver", original)
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and vars(module).get("deliver") is original:
                self.replace(module, "deliver", span)
        self.entry_points += 1

    def _rebind_pending(self, sim: Any) -> None:
        """Constructors scheduled their first periodic round before the
        wrappers existed; point those pending events at the wrappers."""
        for _time, _seq, event in getattr(sim, "_heap", ()):
            action = event.action
            owner = getattr(action, "__self__", None)
            name = getattr(action, "__name__", "")
            shadow = getattr(owner, "__dict__", {}).get(name)
            if shadow is not None:
                event.action = shadow
