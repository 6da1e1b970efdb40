"""The replica node: an LSDB store behind a network endpoint.

Every replication scheme in this package composes the same building
block: a :class:`ReplicaNode` owning a local
:class:`~repro.lsdb.store.LSDBStore` whose events carry the replica's
identity.  The node speaks a two-message protocol:

* ``{"type": "events", "frame": ColumnFrame}`` — apply remote events
  (idempotently, in per-origin order; duplicates from at-least-once
  shipping are rejected by the store).  Every shipment has this shape,
  one-event frames and traced runs included; with tracing on an extra
  ``"ctx": {frame position: ship span id}`` rides along.
* ``{"type": "vv", "vector": {...}}`` — anti-entropy probe: ship back
  what the sender is missing and not about to receive.

Each node keeps one **send cursor** per destination and origin.  Every
shipment advances it, and pushes (:meth:`ReplicaNode.ship_backlog`) and
probe answers both start from it, so a fault-free run ships every event
once; a probe showing the peer behind what had been sent by its
*previous* probe rewinds it (the repair path, DESIGN.md section 11).

Subjective consistency (paper section 1) falls out of the structure:
every read and write a client performs against one node sees only that
node's log.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Iterable, Mapping, Optional

from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import READ_LEVELS, Health, ReadSurface, Served
from repro.lsdb.columnar import ColumnFrame, EventSlice
from repro.lsdb.store import LSDBStore
from repro.replication.batching import BatchPolicy, FrameShipper
from repro.sim.network import Network, Node
from repro.sim.scheduler import Simulator


class ReplicaNode(Node):
    """A network-attached replica.

    Args:
        node_id: Network id, also the store's origin id.
        sim: Simulator providing the store's clock.
        batching: Frame policy for outgoing event shipments; defaults
            to the degenerate one-event-per-frame policy.
    """

    def __init__(
        self,
        node_id: str,
        sim: Simulator,
        batching: Optional[BatchPolicy] = None,
    ):
        super().__init__(node_id)
        self.sim = sim
        # The store inherits the simulator's observability handles, so a
        # traced simulator yields traced replicas with no extra wiring.
        self.store = LSDBStore(
            name=node_id,
            origin=node_id,
            clock=lambda: sim.now,
            tracer=sim.tracer,
            metrics=sim.metrics,
        )
        self.events_received = 0
        #: The send cursor: destination -> origin -> the sequence up to
        #: which everything was handed to the wire for (or is known to be
        #: held by) that peer; and a copy as of the peer's last probe.
        self._sent: dict[str, dict[str, int]] = {}
        self._sent_at_probe: dict[str, dict[str, int]] = {}
        #: This ship round's encoded chunks, keyed by their exact arena
        #: rows, and the (virtual) time of that round: every peer shipped
        #: the same chunk in one round shares one immutable frame.
        self._frames: dict[Any, ColumnFrame] = {}
        self._frames_at: Optional[float] = None
        self.batching = BatchPolicy()
        self.shipper: Optional[FrameShipper] = None
        self.configure_batching(batching)
        self._m_received = (
            sim.metrics.counter("replica.events_received", node=node_id)
            if sim.metrics is not None
            else None
        )

    def configure_batching(self, batching: Optional[BatchPolicy]) -> None:
        """Install a frame policy (schemes call this after construction).

        A coalescing policy (``flush_interval > 0``) also arms a
        :class:`FrameShipper` that eager propagation routes through.
        """
        self.batching = batching if batching is not None else BatchPolicy()
        self.shipper = (
            FrameShipper(self, self.batching) if self.batching.coalesces else None
        )

    # ------------------------------------------------------------------ #
    # Message protocol
    # ------------------------------------------------------------------ #

    def handle_message(self, source: str, message: Mapping[str, Any]) -> None:
        kind = message.get("type")
        if kind == "events":
            # ``ctx`` maps frame positions to the ship spans opened by
            # the sender; arriving here is what closes them, and the
            # apply spans chain onto them (the causal hop).
            ctx = message.get("ctx")
            tracer = self.store.tracer
            if ctx and tracer is not None:
                for ship_id in ctx.values():
                    ship_span = tracer.get(ship_id)
                    if ship_span is not None:
                        tracer.end_span(ship_span, status="delivered")
            # Decode straight into the local arena — one dictionary
            # lookup per distinct string in the frame tables.
            applied = self.store.apply_remote_frame(message["frame"], ctx)
            if applied:
                self.events_received += applied
                if self._m_received is not None:
                    self._m_received.inc(applied)
        elif kind == "vv":
            self._answer_probe(source, message)
        elif kind == "bootstrap":
            self._serve_bootstrap(source)
        elif kind == "checkpoint":
            self.store.install_checkpoint(message["checkpoint"])
            # Immediately probe the donor so the post-checkpoint delta
            # starts flowing — bootstrap is checkpoint + events_since,
            # not checkpoint alone.
            self.probe(source)
        else:
            self.handle_extra_message(source, message)

    def handle_extra_message(self, source: str, message: Mapping[str, Any]) -> None:
        """Hook for scheme-specific messages (overridden by subclasses)."""

    def _answer_probe(self, source: str, message: Mapping[str, Any]) -> None:
        """Ship the prober what it lacks and is not about to receive.

        Its vector predates whatever is still on the wire, so lagging
        the cursor is normal.  Lagging what had been sent by its
        *previous* probe is not — that had a whole probe period to land
        (a shorter period only costs duplicates), so a frame was lost:
        rewind.  A count ahead of the cursor was learned elsewhere.
        """
        theirs = message.get("vector", {})
        cursor = self._sent.setdefault(source, {})
        probed = self._sent_at_probe.get(source, {})
        origins = self.store.version_vector.to_dict()
        for origin in origins:
            have = theirs.get(origin, 0)
            if have < probed.get(origin, 0) or have > cursor.get(origin, 0):
                cursor[origin] = have
        self._ship_past_cursor(source, origins)
        self._sent_at_probe[source] = dict(cursor)

    # ------------------------------------------------------------------ #
    # Propagation helpers
    # ------------------------------------------------------------------ #

    def ship_events(self, destination: str, events: EventSlice) -> bool:
        """Ship a run of this store's arena rows to one peer as wire
        frames (best-effort).

        The run is cut into LSN-contiguous chunks by this node's
        :class:`~repro.replication.batching.BatchPolicy` and each chunk
        ships as one :class:`ColumnFrame` message — one network frame
        (one latency draw, one loss coin) per chunk, with the unbatched
        default degenerating to one-row frames.  A chunk is encoded
        straight from the arena columns once per ship round
        (:meth:`_frame_for`), however many peers receive it: frames are
        immutable, so every peer's message carries the same one.
        Returns ``True`` only when
        every frame was accepted, and only then advances the send
        cursor (where the run continues it); after a ``False`` the whole
        run ships again, which idempotent apply makes safe.

        Tracing only *adds* to this: each position whose event carries
        an append span gets a ``replicate.ship`` span parented on it;
        the span ids ride along in the message's position-keyed ``ctx``
        and are closed by the receiver.  A frame that never arrives
        leaves its ship spans open — the timeline's way of showing a
        lost replication hop.
        """
        tracer = self.store.tracer
        shipped_all = True
        runs: list[tuple[str, int, int]] = []
        for chunk in self.batching.chunk_rows(events):
            frame = self._frame_for(chunk)
            message: dict[str, Any] = {"type": "events", "frame": frame}
            if tracer is not None and frame.span_ids:
                message["ctx"] = {
                    position: tracer.start_span(
                        "replicate.ship",
                        parent=append_span,
                        node=self.node_id,
                        dst=destination,
                    ).span_id
                    for position, append_span in frame.span_ids.items()
                }
            if self.send_batch(destination, [message], size=len(chunk)):
                runs.extend(frame.origin_runs())
            else:
                shipped_all = False
        if shipped_all:
            cursor = self._sent.setdefault(destination, {})
            for origin, first, last in runs:
                if first - 1 <= cursor.get(origin, 0) < last:
                    cursor[origin] = last
        return shipped_all

    def _frame_for(self, chunk: EventSlice) -> ColumnFrame:
        """The frame for ``chunk``, encoded on its first shipment this
        round.  The arena is immortal, so the same rows always encode to
        the same frame; only the current round's frames are kept."""
        now = self.sim.now
        if now != self._frames_at:
            self._frames = {}
            self._frames_at = now
        rows = chunk.rows
        key = rows if isinstance(rows, range) else tuple(rows)
        frame = self._frames.get(key)
        if frame is None:
            frame = self._frames[key] = ColumnFrame.from_slice(chunk)
        return frame

    def ship_backlog(self, destination: str) -> bool:
        """Push this node's own writes not yet handed to the wire for
        ``destination`` — the one call every ship round makes per peer.
        A probe sent in the same round is answered past this push, so
        it re-ships a run only if the peer still lacks it a round on.

        It first folds the rows no read has folded yet, so every row a
        node appends is folded within the round that ships it."""
        self.store.fold_pending()
        return self._ship_past_cursor(destination, (self.node_id,))

    def _ship_past_cursor(self, destination: str, origins: Iterable[str]) -> bool:
        cursor = self._sent.get(destination, {})
        feeds = [
            feed
            for origin in origins
            if (feed := self.store.events_from_origin(origin, cursor.get(origin, 0)))
        ]
        if len(feeds) > 1:
            # Views of our own arena: they concatenate into one slice
            # that chunks at the origin boundaries.
            rows = [row for feed in feeds for row in feed.rows]
            feeds = [EventSlice(self.store.log.arena, rows)]
        return not feeds or self.ship_events(destination, feeds[0])

    def offer_events(self, destination: str, events: EventSlice) -> None:
        """Eager-shipping entry point for rows just appended to this
        store: coalesce when a flush timer is configured, ship
        immediately otherwise."""
        if self.shipper is not None:
            self.shipper.offer(destination, events)
        else:
            self.ship_events(destination, events)

    def probe(self, destination: str) -> bool:
        """Send our version vector to a peer, inviting it to fill our
        gaps (one half of a gossip exchange)."""
        return self.send(
            destination,
            {"type": "vv", "vector": self.store.version_vector.to_dict()},
        )

    # ------------------------------------------------------------------ #
    # New-replica bootstrap (checkpoint + delta, O(delta) not O(log))
    # ------------------------------------------------------------------ #

    def request_bootstrap(self, donor_id: str) -> bool:
        """Ask ``donor_id`` for its latest rollup checkpoint.

        The donor replies with a ``checkpoint`` message; installing it
        seeds this (empty) replica's state map and per-origin watermarks
        so replication only ships events *since* the checkpoint instead
        of the donor's entire history.
        """
        return self.send(donor_id, {"type": "bootstrap"})

    def _serve_bootstrap(self, destination: str) -> None:
        manager = self.store.checkpoints
        checkpoint = manager.latest() if manager is not None else None
        if checkpoint is None:
            # No checkpoint on file — capture an ad-hoc one; the donor
            # pays one O(entities) copy instead of shipping O(log) events.
            from repro.lsdb.checkpoint import Checkpoint

            checkpoint = Checkpoint.capture(self.store)
        self.send_batch(
            destination,
            [{"type": "checkpoint", "checkpoint": checkpoint}],
            size=checkpoint.entity_count,
        )

    # ------------------------------------------------------------------ #
    # Convergence checks (used by tests and experiments)
    # ------------------------------------------------------------------ #

    def observable_state(self) -> dict[tuple[str, str], dict[str, Any]]:
        """Field values of all live entities — the application view used
        to decide whether replicas have converged."""
        return {
            ref: dict(state.fields)
            for ref, state in self.store.current_state().items()
        }


def staleness_behind(authority: ReplicaNode, follower: ReplicaNode) -> float:
    """How long ``follower`` has been behind ``authority``, in sim time.

    ``0.0`` when the follower has applied every event the authority
    originated; otherwise the age of the *oldest* authority event the
    follower has not applied yet — "this copy is missing writes from
    ``t`` seconds ago", which is the staleness number a degraded read
    gets stamped with (the measurement-first posture of the consistency
    simulation literature: measure the distribution, don't assert it).
    """
    origin = authority.node_id
    applied = follower.store.version_vector.counts.get(origin, 0)
    oldest = authority.store.origin_timestamp_after(origin, applied)
    if oldest is None:
        return 0.0
    return max(0.0, authority.sim.now - oldest)


def lag_behind_peers(serving: ReplicaNode, peers: Iterable[ReplicaNode]) -> float:
    """The worst :func:`staleness_behind` of ``serving`` against every
    other node in ``peers`` — the age of the oldest write, from anyone,
    that ``serving`` has not applied."""
    staleness = 0.0
    for peer in peers:
        if peer is not serving:
            staleness = max(staleness, staleness_behind(peer, serving))
    return staleness


class PrimaryCopySurface(ReadSurface):
    """``serve`` for schemes with one authoritative copy: ``STRONG``
    reads the authority at staleness zero, anything weaker reads the
    follower's own fold at the replica floor, stamped with how far it
    lags (:func:`staleness_behind`): the copy holds what it holds, and
    the stamp says how old it is.  A subclass sets :attr:`_h_staleness`
    when follower reads should record their lag in events."""

    levels = READ_LEVELS
    #: :meth:`_read_nodes`, asked once: membership is fixed at
    #: construction.
    _read_pair: Optional[tuple[ReplicaNode, ReplicaNode]] = None
    #: Histogram of each follower read's lag in authority events.
    _h_staleness = None

    @abstractmethod
    def _read_nodes(self) -> tuple[ReplicaNode, ReplicaNode]:
        """``(authority, follower)``."""

    def health(self) -> tuple[Health, Health]:
        """STRONG reads the authority and BOUNDED the follower: each is
        up while its node is not crashed."""
        authority, follower = self._read_nodes()
        return (lambda: not authority.crashed), (lambda: not follower.crashed)

    def serve(
        self,
        entity_type: str,
        entity_key: str,
        level: ConsistencyLevel,
        *,
        site: Optional[str] = None,
    ) -> Served:
        pair = self._read_pair
        if pair is None:
            pair = self._read_pair = self._read_nodes()
        authority, follower = pair
        if level is ConsistencyLevel.STRONG:
            state = authority.store.get(entity_type, entity_key)
            return state, level, 0.0, authority.node_id, ""
        # Not STRONG, so already at or below the replica floor.  The
        # stamp is :func:`staleness_behind`, inlined.
        origin = authority.node_id
        applied = follower.store.version_vector.counts.get(origin, 0)
        if self._h_staleness is not None:
            self._h_staleness.record(
                authority.store.count_from_origin(origin, applied)
            )
        state = follower.store.get(entity_type, entity_key)
        oldest = authority.store.origin_timestamp_after(origin, applied)
        staleness = 0.0 if oldest is None else max(0.0, authority.sim.now - oldest)
        return state, level, staleness, follower.node_id, ""


def converged(replicas: list[ReplicaNode]) -> bool:
    """Whether all replicas expose identical observable state.

    This is the paper's eventual-consistency test: "convergence to
    equivalent states at all replicas if there were no further
    transactions" (section 1).
    """
    if len(replicas) < 2:
        return True
    reference = replicas[0].observable_state()
    return all(replica.observable_state() == reference for replica in replicas[1:])
