"""Simulated message-passing network between nodes.

The network is the only channel between replicas, queue brokers and
process engines, so everything the CAP principle is about — latency, loss
and partitions (paper section 1 and principle 2.11) — is injected here.

Messages are delivered by scheduling a callback on the simulator after a
latency drawn from a configurable distribution.  Partitions are modelled
as named groups of nodes; a message crossing group boundaries while a
partition is active is silently dropped (and counted), exactly the
behaviour that forces a replication scheme to choose between availability
and consistency.

There is one route: :meth:`Network.send` (a bare message) and
:meth:`Network.send_batch` (a :class:`Frame`) share the endpoint checks,
the crash, partition and loss decisions, the latency draw and the
duplication coin, so a message meets the same fabric whichever door it
used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import NetworkError
from repro.sim.scheduler import Simulator


@dataclass(frozen=True)
class Frame:
    """Wire envelope bundling several application messages into one
    network unit.

    A frame is the granularity at which the network makes decisions:
    one latency draw, one loss coin, one duplication coin — for the
    whole frame, exactly the decisions a bare :meth:`Network.send`
    gets.  That is exactly how a real batched transport behaves
    (a TCP segment is lost whole, not per row), and it is why chaos
    loss/duplication operates per frame, not per event: a lost frame
    loses the entire LSN-contiguous run, which the reorder buffer and
    anti-entropy repair must then recover.

    Attributes:
        messages: The application payloads, delivered in order to the
            destination's :meth:`Node.handle_message`.
        size: Logical size for metrics — callers shipping event batches
            pass the event count; defaults to ``len(messages)``.
    """

    messages: tuple
    size: int


class Node:
    """A participant in the simulated distributed system.

    Subclasses (replicas, brokers, coordinators) override
    :meth:`handle_message`.  A crashed node receives nothing; messages
    addressed to it while down are dropped, mirroring a real crash-stop
    failure model.

    Args:
        node_id: Unique name used for routing.
    """

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.crashed = False
        self.network: Optional["Network"] = None

    def handle_message(self, source: str, message: Any) -> None:
        """React to a delivered message.  Default: ignore."""

    def send(self, destination: str, message: Any) -> bool:
        """Send ``message`` to ``destination`` via the attached network.

        Returns:
            ``True`` if the message was accepted for (possible) delivery,
            ``False`` if it was dropped at send time (partition, loss, or
            this node is crashed).

        Raises:
            NetworkError: If the node was never registered on a network.
        """
        if self.network is None:
            raise NetworkError(f"node {self.node_id!r} is not on a network")
        return self.network.send(self.node_id, destination, message)

    def send_batch(
        self, destination: str, messages: list, *, size: Optional[int] = None
    ) -> bool:
        """Ship ``messages`` to ``destination`` as one wire frame.

        Returns ``True`` if the frame was accepted for (possible)
        delivery — the whole frame is accepted or dropped as a unit.

        Raises:
            NetworkError: If the node was never registered on a network.
        """
        if self.network is None:
            raise NetworkError(f"node {self.node_id!r} is not on a network")
        return self.network.send_batch(
            self.node_id, destination, messages, size=size
        )

    def crash(self) -> None:
        """Stop receiving messages until :meth:`recover` is called."""
        self.crashed = True

    def recover(self) -> None:
        """Resume receiving messages."""
        self.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "crashed" if self.crashed else "up"
        return f"{type(self).__name__}({self.node_id!r}, {state})"


@dataclass
class Partition:
    """An active network partition.

    Nodes are split into groups; messages within a group flow normally,
    messages between groups are dropped.  Nodes not named in any group
    can talk to everyone (useful for partial partitions).
    """

    groups: list[set[str]]

    def allows(self, source: str, destination: str) -> bool:
        """Whether a message from ``source`` to ``destination`` crosses
        a partition boundary."""
        source_group = self._group_of(source)
        destination_group = self._group_of(destination)
        if source_group is None or destination_group is None:
            return True
        return source_group is destination_group

    def _group_of(self, node_id: str) -> Optional[set[str]]:
        for group in self.groups:
            if node_id in group:
                return group
        return None


@dataclass
class LinkStats:
    """Per-(source-site, destination-site) wire counters.

    The global :class:`NetworkStats` aggregates across the whole fabric;
    when a :class:`~repro.sim.topology.SiteTopology` is attached, every
    cross-site send is *also* booked against its directed link so WAN
    frame amortization (payloads per frame, per link) is observable and
    gateable per datacenter pair.  Drops are booked on the link whether
    they happen at send time or in flight, so without duplication
    ``sent == delivered + dropped``.
    """

    sent: int = 0
    delivered: int = 0
    frames: int = 0
    payloads: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_crashed: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_loss + self.dropped_partition + self.dropped_crashed

    def to_dict(self) -> dict[str, int]:
        return {
            "delivered": self.delivered,
            "dropped": self.dropped,
            "frames": self.frames,
            "payloads": self.payloads,
            "sent": self.sent,
        }


@dataclass
class NetworkStats:
    """Counters describing what the network did to traffic."""

    sent: int = 0
    delivered: int = 0
    duplicated: int = 0
    dropped_partition: int = 0
    dropped_loss: int = 0
    dropped_crashed: int = 0
    #: Wire messages sent as :meth:`Network.send_batch` frames, of any
    #: size (each also counted once in :attr:`sent`), and the logical
    #: payloads they carried.  ``frame_payloads / frames`` is the
    #: realised batching factor.
    frames: int = 0
    frame_payloads: int = 0
    #: Per-directed-WAN-link counters, keyed ``(src_site, dst_site)``.
    #: Populated only for cross-site traffic of an attached topology.
    links: dict = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        """Total messages that never reached a handler."""
        return self.dropped_partition + self.dropped_loss + self.dropped_crashed

    def link(self, src_site: str, dst_site: str) -> LinkStats:
        """The (created-on-demand) counters for one directed link."""
        key = (src_site, dst_site)
        stats = self.links.get(key)
        if stats is None:
            stats = self.links[key] = LinkStats()
        return stats

    @property
    def wan_frames(self) -> int:
        """Cross-site wire frames, summed over every link."""
        return sum(link.frames for link in self.links.values())

    @property
    def wan_payloads(self) -> int:
        """Cross-site logical payloads, summed over every link."""
        return sum(link.payloads for link in self.links.values())

    def links_to_dict(self) -> dict[str, dict[str, int]]:
        """JSON-friendly per-link view, keys ``"src->dst"`` sorted."""
        return {
            f"{src}->{dst}": self.links[(src, dst)].to_dict()
            for src, dst in sorted(self.links)
        }


class Network:
    """Latency/loss/partition-aware message router.

    :meth:`send` and :meth:`send_batch` are two envelopes over one
    routing decision (:meth:`_route`); they differ only in the frame
    counters.  The tracer and metrics registry come from ``sim``.

    Args:
        sim: The simulator providing time and scheduling.
        latency: Either a constant (float) one-way delay, or a callable
            ``(rng) -> float`` drawing a delay per message.
        loss_probability: Independent per-message drop probability.
        duplication_probability: Independent probability that a message
            accepted for delivery is delivered *twice* (with independent
            latency draws) — the at-least-once hazard chaos experiments
            exercise; receivers are expected to be idempotent.

    Mutable fault knobs (all default to the benign setting, and the
    chaos engine flips them mid-run):

    * :attr:`loss_probability` / :attr:`duplication_probability` — per
      message probabilities;
    * :attr:`latency_factor` — global multiplier on every latency draw
      (a delay spike when > 1);
    * :attr:`slow_nodes` — per-node latency multipliers; a message is
      slowed by the factors of both its endpoints (a *gray failure*:
      the node is up and correct, just pathologically slow).

    Example:
        >>> sim = Simulator()
        >>> net = Network(sim, latency=2.0)
        >>> class Echo(Node):
        ...     def handle_message(self, source, message):
        ...         self.last = (source, message)
        >>> a, b = Echo("a"), Echo("b")
        >>> _, _ = net.register(a), net.register(b)
        >>> _ = a.send("b", "ping")
        >>> _ = sim.run()
        >>> b.last
        ('a', 'ping')
    """

    def __init__(
        self,
        sim: Simulator,
        latency: float | Callable[..., float] = 1.0,
        loss_probability: float = 0.0,
        duplication_probability: float = 0.0,
    ):
        self.sim = sim
        self._latency = latency
        self.loss_probability = loss_probability
        self.duplication_probability = duplication_probability
        self.latency_factor = 1.0
        self.slow_nodes: dict[str, float] = {}
        self.nodes: dict[str, Node] = {}
        self.partition: Optional[Partition] = None
        self.stats = NetworkStats()
        #: Optional :class:`~repro.sim.topology.SiteTopology`; when set,
        #: cross-site traffic pays the link's WAN latency, flips its
        #: extra loss coin, and is booked per directed link.
        self.topology = None
        self._rng = sim.fork_rng()
        # Observability handles come from the simulator, so a traced
        # simulator yields a traced network.
        self.tracer = sim.tracer
        self.metrics = sim.metrics
        if self.metrics is not None:
            counter = self.metrics.counter
            self._m_sent = counter("net.sent")
            self._m_delivered = counter("net.delivered")
            self._m_dropped = {
                "partition": counter("net.dropped", reason="partition"),
                "loss": counter("net.dropped", reason="loss"),
                "crashed": counter("net.dropped", reason="crashed"),
            }
            self._m_latency = self.metrics.histogram("net.latency")
            self._m_frames = counter("net.frames")
            self._m_frame_size = self.metrics.histogram("net.frame_size")
        else:
            self._m_sent = self._m_delivered = self._m_latency = None
            self._m_frames = self._m_frame_size = None
            self._m_dropped = {}

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    def register(self, node: Node) -> Node:
        """Attach a node.  Node ids must be unique."""
        if node.node_id in self.nodes:
            raise NetworkError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        node.network = self
        return node

    def attach_topology(self, topology) -> None:
        """Layer a :class:`~repro.sim.topology.SiteTopology` onto the
        fabric.  From now on a send whose endpoints sit in different
        sites pays the link's WAN latency on top of the base draw,
        flips the link's extra loss coin (only when its probability is
        positive — same-site traffic consumes no extra randomness), and
        is counted in :attr:`NetworkStats.links` plus the ``net.wan_*``
        metrics.  Attaching the same topology twice is a no-op."""
        if self.topology is topology:
            return
        if self.topology is not None:
            raise NetworkError("network already has a topology attached")
        self.topology = topology

    def _wan_hop(self, source: str, destination: str):
        """``(src_site, dst_site, link, link_stats)`` for a cross-site
        send, ``None`` otherwise.  One dict lookup per endpoint when a
        topology is attached; nothing at all when it is not."""
        if self.topology is None:
            return None
        hop = self.topology.wan_link_for(source, destination)
        if hop is None:
            return None
        src_site, dst_site, link = hop
        return src_site, dst_site, link, self.stats.link(src_site, dst_site)

    def partition_into(self, *groups: set[str] | list[str]) -> Partition:
        """Split the network into isolated groups (heals any prior
        partition first).

        Returns:
            The active :class:`Partition`, useful for assertions.
        """
        self.partition = Partition(groups=[set(group) for group in groups])
        return self.partition

    def heal(self) -> None:
        """Remove the active partition; traffic flows everywhere again."""
        self.partition = None

    def is_partitioned(self, source: str, destination: str) -> bool:
        """Whether traffic between two nodes is currently blocked."""
        return self.partition is not None and not self.partition.allows(
            source, destination
        )
    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def send(self, source: str, destination: str, message: Any) -> bool:
        """Route one message, applying partition, loss and crash rules.

        Returns ``True`` if delivery was scheduled.  Note a ``True``
        return still does not guarantee delivery: the destination may
        crash before the latency elapses.
        """
        return self._route(source, destination, message, None)

    def send_batch(
        self,
        source: str,
        destination: str,
        messages: list,
        *,
        size: Optional[int] = None,
    ) -> bool:
        """Route several messages as ONE wire frame.

        The frame costs one :attr:`NetworkStats.sent`, one latency draw,
        one loss coin and one duplication coin regardless of how many
        payloads it carries — batching trades wire messages for payload
        fate-sharing (a dropped frame drops every payload in it).  On
        delivery the payloads are handed to the destination's
        :meth:`Node.handle_message` one by one, in order, so receivers
        written for single messages work unchanged.

        The routing decision is the one :meth:`send` takes; only the
        envelope and the frame counters differ.

        Returns ``True`` if the frame was accepted for delivery.
        """
        payloads = tuple(messages)
        if not payloads:
            return True
        frame = Frame(messages=payloads, size=len(payloads) if size is None else size)
        return self._route(source, destination, frame, frame.size)

    def _route(
        self, source: str, destination: str, message: Any, size: Optional[int]
    ) -> bool:
        """The one routing decision behind :meth:`send` (``size`` is
        ``None``) and :meth:`send_batch` (``message`` is a
        :class:`Frame` of ``size`` logical payloads).

        Nothing is counted until both endpoints are known.  Randomness
        is drawn in a fixed order — loss coin, WAN loss coin, latency,
        duplication coin, duplicate latency — so seeded runs replay.
        """
        if destination not in self.nodes:
            raise NetworkError(f"unknown destination {destination!r}")
        if source not in self.nodes:
            raise NetworkError(f"unknown source {source!r}")
        stats = self.stats
        stats.sent += 1
        if size is not None:
            # Logical payloads (the caller's ``size``, e.g. events in an
            # "events" message), so frame_payloads / frames is the
            # realized batching factor even when a frame wraps one dict.
            stats.frames += 1
            stats.frame_payloads += size
        if self._m_sent is not None:
            self._m_sent.inc()
            if size is not None:
                self._m_frames.inc()
                self._m_frame_size.record(size)
        payloads = 1 if size is None else size
        wan = self._wan_hop(source, destination)
        if wan is not None:
            link_stats = wan[3]
            link_stats.sent += 1
            link_stats.frames += 1
            link_stats.payloads += payloads
        if self.nodes[source].crashed:
            reason = "crashed"
        elif self.is_partitioned(source, destination):
            reason = "partition"
        elif (
            self.loss_probability > 0 and self._rng.coin(self.loss_probability)
        ) or (
            wan is not None
            and wan[2].loss_probability > 0
            and self._rng.coin(wan[2].loss_probability)
        ):
            reason = "loss"
        else:
            reason = None
        tracer = self.tracer
        traced = tracer is not None and tracer.current is not None
        if reason is not None:
            self._drop(reason, wan)
            if traced:
                tracer.end_span(
                    tracer.start_span(
                        "net.hop", node=source, src=source, dst=destination,
                        status=f"dropped_{reason}",
                    )
                )
            return False
        delay = self._latency_for(source, destination, wan)
        if self._m_latency is not None:
            self._m_latency.record(delay)
            if wan is not None:
                self._record_wan(wan, payloads, delay)
        # A hop span is opened only when the send happens inside an
        # active trace; it closes at delivery — or never, which is how a
        # message dropped by an in-flight partition shows up in the
        # timeline.
        hop = None
        if traced:
            attrs = {} if size is None else {"payloads": size}
            hop = tracer.start_span(
                "net.hop", node=source, src=source, dst=destination, **attrs
            )
        self.sim.schedule(
            delay,
            lambda: self._deliver(source, destination, message, hop),
            label=f"net {source}->{destination}",
        )
        if self.duplication_probability > 0 and self._rng.coin(
            self.duplication_probability
        ):
            # The ghost copy (a whole frame for send_batch) takes its
            # own latency draw, so it may arrive before or after the
            # original.
            stats.duplicated += 1
            if self.metrics is not None:
                self.metrics.counter("net.duplicated").inc()
            self.sim.schedule(
                self._latency_for(source, destination, wan),
                lambda: self._deliver(source, destination, message, None),
                label=f"net dup {source}->{destination}",
            )
        return True

    def _latency_for(self, source: str, destination: str, wan) -> float:
        """One latency draw, scaled by the chaos knobs (global factor,
        then both endpoints' slow-node multipliers), plus the constant
        WAN leg of a cross-site hop."""
        latency = self._latency
        delay = max(0.0, latency(self._rng)) if callable(latency) else float(latency)
        if self.latency_factor != 1.0:
            delay *= self.latency_factor
        if self.slow_nodes:
            delay *= self.slow_nodes.get(source, 1.0)
            delay *= self.slow_nodes.get(destination, 1.0)
        if wan is not None:
            delay += wan[2].latency
        return delay

    def _record_wan(self, wan, payloads: int, delay: float) -> None:
        """Metric side of a cross-site frame that made it onto the wire:
        per-link ``net.wan_*`` counters plus the one-way WAN latency."""
        label = f"{wan[0]}->{wan[1]}"
        self.metrics.counter("net.wan_frames", link=label).inc()
        self.metrics.counter("net.wan_payloads", link=label).inc(payloads)
        self.metrics.histogram("net.wan_latency", link=label).record(delay)

    def _drop(self, reason: str, wan) -> None:
        """Book a dropped message in the stats, on its WAN link (``wan``
        from :meth:`_wan_hop`, ``None`` for same-site traffic) and in
        the metrics."""
        field_name = f"dropped_{reason}"
        setattr(self.stats, field_name, getattr(self.stats, field_name) + 1)
        if wan is not None:
            link_stats = wan[3]
            setattr(link_stats, field_name, getattr(link_stats, field_name) + 1)
        counter = self._m_dropped.get(reason)
        if counter is not None:
            counter.inc()

    def _deliver(
        self,
        source: str,
        destination: str,
        message: Any,
        hop=None,
    ) -> None:
        tracer = self.tracer
        node = self.nodes.get(destination)
        # In-flight drops are booked on the WAN link too, so every
        # link's sent == delivered + dropped (duplicates aside).
        wan = self._wan_hop(source, destination)
        if node is None or node.crashed:
            self._drop("crashed", wan)
            if hop is not None:
                tracer.end_span(hop, status="dropped_crashed")
            return
        # A partition that started while the message was in flight also
        # blocks it: partitions sever links, not just send attempts.
        if self.is_partitioned(source, destination):
            self._drop("partition", wan)
            # The hop span stays OPEN: the message left the source and
            # never arrived, which the timeline renders as "open".
            return
        self.stats.delivered += 1
        if wan is not None:
            wan[3].delivered += 1
        if self._m_delivered is not None:
            self._m_delivered.inc()
        if hop is not None:
            tracer.end_span(hop, status="delivered")
            with tracer.resume(hop.span_id):
                self._dispatch(node, source, message)
        else:
            self._dispatch(node, source, message)

    @staticmethod
    def _dispatch(node: Node, source: str, message: Any) -> None:
        """Hand a delivered wire message to the node — unpacking frames
        so handlers only ever see application payloads."""
        if type(message) is Frame:
            for payload in message.messages:
                node.handle_message(source, payload)
        else:
            node.handle_message(source, message)
