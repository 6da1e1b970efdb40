"""The cluster facade: one fluent builder for a whole simulated system.

Standing up an experiment used to mean hand-wiring a
:class:`~repro.sim.scheduler.Simulator`, a
:class:`~repro.sim.network.Network`, replica stores, a replication
scheme and (since the observability subsystem) a tracer and metrics
registry — five to ten lines of boilerplate repeated in every example,
benchmark and test.  The builder collapses that to declarations::

    from repro import Cluster

    cluster = (
        Cluster.build(seed=7)
        .with_network(latency=5.0)
        .with_replicas(2, ship_interval=10.0)
        .with_tracing()
        .create()
    )
    cluster.replication.write_insert("order", "o-1", {"total": 9})
    cluster.sim.run(until=30.0)
    print(cluster.timeline())

Every component the builder creates inherits the cluster's tracer and
metrics registry, so ``with_tracing()`` is the only switch between "no
observability overhead" and "every hop traced".  The builder is a
facade only — each ``with_*`` call maps onto the public constructor of
the component it creates, and hand-wiring those constructors remains
fully supported.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.compensation import CompensationManager
from repro.core.consistency import ConsistencyLevel, ConsistencyPolicy
from repro.core.constraints import ConstraintManager
from repro.core.readpath import ReadRequest, ReadResult
from repro.core.transaction import TransactionManager
from repro.errors import ConsistencyPolicyError
from repro.lsdb.store import LSDBStore
from repro.obs.export import render_timeline, trace_payload
from repro.obs.metrics import MetricsRegistry, MetricsReport
from repro.obs.trace import Tracer
from repro.partition.rebalance import RebalanceRun, Rebalancer
from repro.partition.relocation import EntityMover
from repro.partition.ring import ConsistentHashRing, RebalancePlanner
from repro.partition.router import DynamicDirectory
from repro.partition.units import SerializationUnit
from repro.queues.reliable import ReliableQueue
from repro.replication.active_active import ActiveActiveGroup
from repro.replication.batching import BatchPolicy
from repro.replication.master_slave import MasterSlaveGroup
from repro.replication.quorum import QuorumGroup
from repro.replication.synchronous import SyncPrimaryBackup
from repro.replication.warehouse import WarehouseExtract
from repro.sim.network import Network
from repro.sim.scheduler import Simulator

#: Replication modes ``with_replicas`` understands.
REPLICATION_MODES = ("master_slave", "sync", "active_active", "quorum")


class Cluster:
    """A built simulated system: simulator, network, stores, schemes.

    Instances come from :meth:`Cluster.build` (the
    :class:`ClusterBuilder`); the attributes are the wired components,
    all optional except ``sim``:

    Attributes:
        sim: The simulator everything runs on.
        network: The message network (``None`` for single-node setups).
        tracer: The shared tracer (``None`` unless ``with_tracing``).
        metrics: The shared registry (``None`` unless ``with_tracing``).
        replication: The replication scheme object, as built by its own
            constructor (:class:`MasterSlaveGroup`,
            :class:`SyncPrimaryBackup`, ...).
        store: The primary application store: the standalone store if
            one was requested, else the scheme's primary/master store.
        queue: The reliable queue, if requested.
        units: Serialization units by name, if requested.
        ring: The consistent-hash membership (``with_ring``); after a
            ``scale_out``/``scale_in`` this is the *target* membership —
            the directory keeps routing correctly mid-rebalance.
        directory: The dynamic directory over the ring (``with_ring``).
        mover: The per-entity relocation engine (``with_ring``).
        rebalancer: The bulk rebalance executor (``with_ring``).
        retired_units: Units scaled in and drained; kept for their audit
            history (tombstoned ``migrated-out`` events stay readable).
        warehouse: The warehouse extract, if requested.
        transactions: The transaction manager, if requested.
        constraints: The constraint manager, if requested.
        compensation: The compensation manager, if requested.
        chaos: The chaos engine, if requested (``with_chaos``).
        retry_policy / timeout_policy: The cluster-wide fault-tolerance
            defaults declared via ``with_policies`` (``None`` when
            unset; components built with explicit policies keep them).
        topology: The :class:`~repro.sim.topology.SiteTopology`, if the
            cluster is geo-distributed (``with_topology``).
        placement: The :class:`~repro.partition.placement.PlacementPolicy`
            mapping shards to sites (``with_placement``); together with
            the topology this makes ``replication`` a
            :class:`~repro.replication.geo.GeoReplicaGroup`.
        default_requests: The per-entity-type default
            :class:`~repro.core.readpath.ReadRequest` built from the
            ``with_consistency`` policies; :meth:`read` consults it only
            when the caller passes no request.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.network: Optional[Network] = None
        self.tracer: Optional[Tracer] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.replication: Any = None
        self.store: Optional[LSDBStore] = None
        self.queue: Optional[ReliableQueue] = None
        self.units: dict[str, SerializationUnit] = {}
        self.ring: Optional[ConsistentHashRing] = None
        self.directory: Optional[DynamicDirectory] = None
        self.mover: Optional[EntityMover] = None
        self.rebalancer: Optional[Rebalancer] = None
        self.retired_units: dict[str, SerializationUnit] = {}
        self.warehouse: Optional[WarehouseExtract] = None
        self.transactions: Optional[TransactionManager] = None
        self.constraints: Optional[ConstraintManager] = None
        self.compensation: Optional[CompensationManager] = None
        self.chaos: Any = None  # ChaosEngine when with_chaos() was declared
        self.retry_policy: Any = None  # cluster-wide defaults (with_policies)
        self.timeout_policy: Any = None
        self.batching: Optional[BatchPolicy] = None  # with_batching default
        self.front_door: Any = None  # FrontDoor when with_front_door()
        self.topology: Any = None  # SiteTopology when with_topology()
        self.placement: Any = None  # PlacementPolicy when with_placement()
        self.read_caches: list[Any] = []  # always empty: reads use the fold
        self.default_requests: dict[str, ReadRequest] = {}

    @staticmethod
    def build(seed: int = 0) -> "ClusterBuilder":
        """Start declaring a cluster (the recommended entry point)."""
        return ClusterBuilder(seed=seed)

    # ------------------------------------------------------------------ #
    # Unified read/write over whatever was built
    # ------------------------------------------------------------------ #

    def read(
        self,
        entity_type: str,
        entity_key: str,
        *,
        request: Optional[ReadRequest] = None,
        site: Optional[str] = None,
    ) -> ReadResult:
        """Canonical read against the cluster's primary read surface.

        Always answers with a :class:`~repro.core.readpath.ReadResult`
        stamped with the delivered consistency, measured staleness, and
        — on a geo-replicated cluster — the site that served it.
        ``request=None`` means the entity type's declared default
        (:attr:`default_requests`, from ``with_consistency``), and
        ``ReadRequest()``, i.e. STRONG, for a type without a policy.
        The read goes through the front door when one was built
        (``with_front_door``) — admission, backpressure, breakers and
        the degrade ladder all apply.  Otherwise an ``EXTRACT`` request
        is served by the warehouse when one was built, and anything
        else straight by the replication scheme (or the standalone
        store).

        Args:
            site: On a geo cluster, the datacenter the caller is in;
                reads prefer replicas local to it (a front door reads
                from its own site instead).  Rejected when the cluster
                has no topology.
        """
        if request is None:
            request = self.default_requests.get(entity_type)
        if site is not None and self.placement is None:
            raise ValueError("site= requires a geo cluster (with_topology)")
        if self.front_door is not None:
            return self.front_door.read(entity_type, entity_key, request=request)
        if (
            request is not None
            and request.level is ConsistencyLevel.EXTRACT
            and self.warehouse is not None
        ):
            return self.warehouse.read(entity_type, entity_key, request=request)
        surface = self.replication if self.replication is not None else self.store
        if surface is None:
            raise RuntimeError("cluster has no readable surface")
        return surface.read(entity_type, entity_key, request=request, site=site)

    # ------------------------------------------------------------------ #
    # Elasticity (ring membership changes)
    # ------------------------------------------------------------------ #

    def scale_out(
        self,
        unit: str,
        on_done: Optional[Callable[[RebalanceRun], None]] = None,
        **unit_options: Any,
    ) -> RebalanceRun:
        """Add a unit to the ring and start draining keys onto it.

        Returns the live :class:`~repro.partition.rebalance.RebalanceRun`
        immediately — batches execute as the simulator runs (call
        ``run.wait()`` to drive the simulator to completion).  Only the
        keys the new membership assigns to ``unit`` move (~``1/(N+1)``
        of the data); the directory keeps every entity reachable
        throughout, and once the plan drains the ring becomes the
        directory's base router and the per-entity overrides compact
        away.

        Args:
            unit: Name of the new serialization unit.
            on_done: Called once with the finished run (e.g. to chain
                staged scale-out steps).
            **unit_options: Forwarded to :class:`SerializationUnit`
                (``local_commit_cost``).
        """
        if self.ring is None or self.rebalancer is None:
            raise RuntimeError("cluster built without with_ring()")
        if unit in self.units:
            raise ValueError(f"unit {unit!r} already in the cluster")
        self.units[unit] = SerializationUnit(unit, sim=self.sim, **unit_options)
        self.mover.units[unit] = self.units[unit]
        new_ring = self.ring.with_unit(unit)
        plan = RebalancePlanner(self.directory, new_ring).plan_from_units(
            self.mover.units
        )
        run = self.rebalancer.execute(plan, new_router=new_ring, on_done=on_done)
        self.ring = new_ring
        return run

    def scale_in(
        self,
        unit: str,
        on_done: Optional[Callable[[RebalanceRun], None]] = None,
    ) -> RebalanceRun:
        """Remove a unit from the ring, draining its keys first.

        Every entity the unit owns moves to the unit inheriting its ring
        arcs; nothing else moves.  When the drain completes the unit is
        retired into :attr:`retired_units` (its store keeps the
        tombstoned audit history).  Returns the live run.
        """
        if self.ring is None or self.rebalancer is None:
            raise RuntimeError("cluster built without with_ring()")
        if unit not in self.units:
            raise KeyError(f"unknown unit {unit!r}")
        new_ring = self.ring.without_unit(unit)
        plan = RebalancePlanner(self.directory, new_ring).plan_from_units(
            self.mover.units
        )

        def retire(run: RebalanceRun) -> None:
            # The mover keeps the unit: pinned stragglers (exhausted
            # retries) and audit reads still resolve through it.
            self.retired_units[unit] = self.units.pop(unit)
            if on_done is not None:
                on_done(run)

        run = self.rebalancer.execute(plan, new_router=new_ring, on_done=retire)
        self.ring = new_ring
        return run

    # ------------------------------------------------------------------ #
    # Observability views
    # ------------------------------------------------------------------ #

    def timeline(self, trace_id: Optional[str] = None) -> str:
        """Text timeline of the cluster's traces (see
        :func:`repro.obs.export.render_timeline`)."""
        if self.tracer is None:
            raise RuntimeError("cluster built without with_tracing()")
        return render_timeline(self.tracer, trace_id)

    def trace_payload(self, **meta: Any) -> dict[str, Any]:
        """The exportable trace log (schema-pinned JSON shape)."""
        if self.tracer is None:
            raise RuntimeError("cluster built without with_tracing()")
        return trace_payload(self.tracer, meta)

    def metrics_report(self) -> MetricsReport:
        """A deterministic snapshot of every registered metric."""
        if self.metrics is None:
            raise RuntimeError("cluster built without with_tracing()")
        return self.metrics.report()


class ClusterBuilder:
    """Fluent declaration of a cluster; ``create()`` wires it.

    Every ``with_*`` method returns the builder, and declaration order
    does not matter — ``create()`` builds components in dependency
    order (observability, simulator, network, stores, schemes).
    """

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._tracing = False
        self._tracer: Optional[Tracer] = None
        self._metrics: Optional[MetricsRegistry] = None
        self._network_kwargs: Optional[dict[str, Any]] = None
        self._replica_count = 0
        self._replica_mode = ""
        self._replica_kwargs: dict[str, Any] = {}
        self._unit_names: tuple[str, ...] = ()
        self._ring_kwargs: Optional[dict[str, Any]] = None
        self._store_kwargs: Optional[dict[str, Any]] = None
        self._queue_kwargs: Optional[dict[str, Any]] = None
        self._warehouse_kwargs: Optional[dict[str, Any]] = None
        self._transactions_kwargs: Optional[dict[str, Any]] = None
        self._constraint_objs: Optional[tuple[Any, ...]] = None
        self._with_compensation = False
        self._chaos_kwargs: Optional[dict[str, Any]] = None
        self._retry_policy: Any = None
        self._timeout_policy: Any = None
        self._batching: Optional[BatchPolicy] = None
        self._front_door_kwargs: Optional[dict[str, Any]] = None
        self._topology_kwargs: Optional[dict[str, Any]] = None
        self._placement_kwargs: Optional[dict[str, Any]] = None
        self._policies: tuple[ConsistencyPolicy, ...] = ()

    # ------------------------------------------------------------------ #
    # Declarations
    # ------------------------------------------------------------------ #

    def with_tracing(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "ClusterBuilder":
        """Attach causal tracing and a metrics registry to everything
        the builder creates (defaults are freshly constructed)."""
        self._tracing = True
        self._tracer = tracer
        self._metrics = metrics
        return self

    def with_network(
        self,
        latency: float | Callable[..., float] = 1.0,
        loss_probability: float = 0.0,
    ) -> "ClusterBuilder":
        """Add a message network (implied by ``with_replicas``)."""
        self._network_kwargs = {
            "latency": latency,
            "loss_probability": loss_probability,
        }
        return self

    def with_replicas(
        self, count: int, mode: str = "master_slave", **options: Any
    ) -> "ClusterBuilder":
        """Add a replication scheme over ``count`` replicas.

        Args:
            count: Number of replicas (including the primary/master).
            mode: One of :data:`REPLICATION_MODES`.  The default
                ``"master_slave"`` builds a :class:`MasterSlaveGroup`
                (asynchronous log shipping from one master to
                ``count - 1`` slaves); ``count == 2`` is the classic
                primary/backup pair.
            **options: Forwarded to the scheme constructor
                (``ship_interval``, ``anti_entropy_interval``,
                ``write_quorum``, ...).
        """
        if mode not in REPLICATION_MODES:
            raise ValueError(
                f"unknown replication mode {mode!r}; "
                f"expected one of {REPLICATION_MODES}"
            )
        if count < 2:
            raise ValueError(f"replication needs at least 2 replicas, got {count}")
        self._replica_count = count
        self._replica_mode = mode
        self._replica_kwargs = dict(options)
        return self

    def with_partition_units(self, *names: str) -> "ClusterBuilder":
        """Add named serialization units (separate logs, principle 2.5)."""
        if not names:
            raise ValueError("with_partition_units needs at least one name")
        self._unit_names = tuple(names)
        return self

    def with_ring(
        self,
        *names: str,
        vnodes: int = 64,
        batch_size: int = 16,
        batch_interval: float = 1.0,
    ) -> "ClusterBuilder":
        """Add serialization units routed by a consistent-hash ring.

        Implies the units (like ``with_partition_units``) plus the whole
        elasticity stack: a :class:`ConsistentHashRing` over the names,
        a :class:`DynamicDirectory` on top of it, an :class:`EntityMover`
        and a :class:`~repro.partition.rebalance.Rebalancer` — which is
        what makes ``Cluster.scale_out`` / ``Cluster.scale_in`` work.

        Args:
            names: Initial unit names (at least one).
            vnodes: Virtual nodes per unit on the ring.
            batch_size: Entities the rebalancer moves per batch.
            batch_interval: Virtual time between rebalance batches.
        """
        if not names:
            raise ValueError("with_ring needs at least one unit name")
        self._ring_kwargs = {
            "names": tuple(names),
            "vnodes": vnodes,
            "batch_size": batch_size,
            "batch_interval": batch_interval,
        }
        return self

    def with_store(self, name: str = "store", origin: str = "local", **kwargs: Any) -> "ClusterBuilder":
        """Add a standalone (unreplicated) store."""
        self._store_kwargs = {"name": name, "origin": origin, **kwargs}
        return self

    def with_queue(self, name: str = "queue", **kwargs: Any) -> "ClusterBuilder":
        """Add a reliable at-least-once queue."""
        self._queue_kwargs = {"name": name, **kwargs}
        return self

    def with_warehouse(self, interval: float = 100.0, **kwargs: Any) -> "ClusterBuilder":
        """Add a periodic warehouse extract of the primary store."""
        self._warehouse_kwargs = {"interval": interval, **kwargs}
        return self

    def with_read_cache(
        self,
        capacity: int = 512,
        hot_capacity: int = 16,
        coalesce_window: float = 0.0,
    ) -> "ClusterBuilder":
        """Accepted and ignored: arms nothing, and ``cluster.read_caches``
        stays empty.

        Every read answers from the store's incrementally kept fold, one
        dict probe (DESIGN.md section 16).  The signature stays because
        the end-to-end benchmark still declares it.
        """
        return self

    def with_transactions(self, **kwargs: Any) -> "ClusterBuilder":
        """Add a transaction manager over the primary store (implies a
        store if none was declared)."""
        self._transactions_kwargs = dict(kwargs)
        return self

    def with_isolation(
        self,
        level: Any,
        propagation_lag: float = 0.0,
        **kwargs: Any,
    ) -> "ClusterBuilder":
        """Add a transaction manager defaulting to an isolation level.

        Args:
            level: An :class:`repro.core.transaction.IsolationLevel` or
                its string value (``"snapshot"``, ``"nmsi"``, ...).
            propagation_lag: Virtual time an NMSI commit stays
                invisible to other sites.
            kwargs: Further :class:`TransactionManager` arguments,
                merged with (and overriding) any earlier
                :meth:`with_transactions` declaration.
        """
        from repro.core.transaction import IsolationLevel

        resolved = (
            level if isinstance(level, IsolationLevel)
            else IsolationLevel(level)
        )
        merged = dict(self._transactions_kwargs or {})
        merged.update(kwargs)
        merged["isolation"] = resolved
        merged["propagation_lag"] = propagation_lag
        self._transactions_kwargs = merged
        return self

    def with_constraints(self, *constraints: Any) -> "ClusterBuilder":
        """Add a constraint manager (with optional initial constraints)
        over the primary store."""
        self._constraint_objs = tuple(constraints)
        return self

    def with_compensation(self) -> "ClusterBuilder":
        """Add a compensation manager (tentative ops + apologies) over
        the primary store."""
        self._with_compensation = True
        return self

    def with_chaos(
        self,
        seed: Optional[int] = None,
        profile: str | Any = "moderate",
    ) -> "ClusterBuilder":
        """Attach a :class:`~repro.chaos.engine.ChaosEngine` over the
        cluster's network and nodes (implies a network).

        Args:
            seed: Private seed for the chaos schedule; default derives
                the stream from the cluster seed, so chaos intensity can
                be re-rolled independently of the workload.
            profile: A :class:`~repro.chaos.profiles.ChaosProfile` or a
                built-in profile name.

        The engine is built but not armed — call
        ``cluster.chaos.inject(horizon)`` to start the faults, and
        ``cluster.chaos.quiesce()`` before checking invariants.
        """
        self._chaos_kwargs = {"seed": seed, "profile": profile}
        return self

    def with_policies(
        self,
        retry: Any = None,
        timeout: Any = None,
    ) -> "ClusterBuilder":
        """Set cluster-wide fault-tolerance defaults.

        Args:
            retry: A :class:`~repro.core.policy.RetryPolicy` applied to
                every component the builder creates that retries (the
                reliable queue, sync replication, quorum groups).
            timeout: A :class:`~repro.core.policy.TimeoutPolicy` applied
                the same way.

        Component-specific options passed to ``with_queue`` /
        ``with_replicas`` win over these defaults.
        """
        self._retry_policy = retry
        self._timeout_policy = timeout
        return self

    def with_batching(
        self,
        max_batch: Optional[int] = 64,
        flush_interval: float = 0.0,
    ) -> "ClusterBuilder":
        """Set the cluster-wide wire-batching policy for the data plane.

        Applies to every asynchronous event feed the builder creates —
        master/slave shipping, geo shard shipping, active/active eager
        propagation — and bounds the warehouse feed's per-round
        fold to ``max_batch`` events.  Synchronous and quorum schemes
        are unaffected: their replication unit is the transaction, and
        each transaction already ships as one frame.

        Args:
            max_batch: Largest LSN-contiguous run shipped per wire
                frame (``None`` keeps the unbatched one-event-per-frame
                default).
            flush_interval: When positive, eager shipments coalesce in
                a per-destination buffer for at most this much virtual
                time before flushing as one frame.

        A ``batching=BatchPolicy(...)`` passed explicitly to
        ``with_replicas`` wins over this cluster-wide default.
        """
        self._batching = BatchPolicy(
            max_batch=max_batch, flush_interval=flush_interval
        )
        return self

    def with_front_door(self, **options: Any) -> "ClusterBuilder":
        """Put the overload front door in front of the cluster's reads.

        Wires a :class:`~repro.frontdoor.FrontDoor` over whatever read
        surfaces the cluster ends up with — the replication scheme's
        strong and replica copies, the warehouse extract or checkpoint
        snapshots as the bottom rung — with per-tenant admission
        control, backpressure signals, circuit breakers, and the
        degrade ladder.  Every ``cluster.read(...)`` then routes through
        the door.

        Args:
            **options: Forwarded to
                :meth:`repro.frontdoor.FrontDoor.for_cluster` —
                ``quotas``, ``default_quota``, ``bounded_staleness``,
                ``queue_depth_limit``, ``lag_limit_events``,
                ``strong_capacity``, ``bounded_capacity``,
                ``breaker_threshold``, ``breaker_reset``, ``apologies``,
                and — on a geo cluster — ``site`` (the datacenter this
                door fronts; rungs prefer site-local replicas).
        """
        self._front_door_kwargs = dict(options)
        return self

    def with_consistency(self, *policies: ConsistencyPolicy) -> "ClusterBuilder":
        """Declare each data class's consistency (paper section 3.2).

        Each :class:`~repro.core.consistency.ConsistencyPolicy` becomes
        its entity type's default ``ReadRequest(level, max_staleness)``:
        ``cluster.read(entity_type, key)`` without a ``request=`` reads
        at the declared level, an explicit request overrides it, and a
        type without a policy reads STRONG.

        Raises:
            ConsistencyPolicyError: Two policies name one entity type.
        """
        seen: set[str] = set()
        for policy in policies:
            if policy.entity_type in seen:
                raise ConsistencyPolicyError(
                    f"two consistency policies for {policy.entity_type!r}"
                )
            seen.add(policy.entity_type)
        self._policies = policies
        return self

    def with_topology(
        self,
        sites: tuple[str, ...] | list[str],
        *,
        wan_latency: float = 30.0,
        wan_loss: float = 0.0,
        links: Optional[dict[tuple[str, str], Any]] = None,
    ) -> "ClusterBuilder":
        """Make the cluster geo-distributed: named sites over WAN links.

        Declares a :class:`~repro.sim.topology.SiteTopology` the network
        layers onto its fabric — cross-site frames pay the link's WAN
        latency, flip its extra loss coin, and are booked per directed
        link in ``NetworkStats.links`` / ``net.wan_*`` metrics.
        Combined with :meth:`with_placement` it replaces
        ``with_replicas``: replication becomes a per-shard, partially
        replicated :class:`~repro.replication.geo.GeoReplicaGroup`.

        Args:
            sites: Datacenter names (at least one).
            wan_latency: Default one-way extra latency for every
                inter-site link.
            wan_loss: Default extra per-frame loss probability on every
                inter-site link.
            links: Optional ``{(src, dst): WanLink}`` overrides for
                specific directed site pairs.
        """
        if not sites:
            raise ValueError("with_topology needs at least one site")
        self._topology_kwargs = {
            "sites": tuple(sites),
            "wan_latency": wan_latency,
            "wan_loss": wan_loss,
            "links": dict(links) if links else None,
        }
        return self

    def with_placement(
        self,
        policy: Any = None,
        *,
        replicas: int = 2,
        shards: int = 16,
        vnodes: int = 64,
        ship_interval: float = 10.0,
        anti_entropy_interval: float = 25.0,
    ) -> "ClusterBuilder":
        """Place shards across the topology's sites (partial replication).

        Either pass a prebuilt
        :class:`~repro.partition.placement.PlacementPolicy` or let the
        builder construct one over the ``with_topology`` sites.  The
        policy decides which sites host each shard; the geo group then
        ships a shard's frames only to its hosting sites.

        Args:
            policy: A prebuilt placement (its site set must match the
                topology's).
            replicas: Copies of each shard (when building the policy).
            shards: Shard count (when building the policy).
            vnodes: Placement-ring vnodes per site (when building).
            ship_interval: The geo group's shipping cadence.
            anti_entropy_interval: The geo group's gossip/repair period
                (``0`` disables anti-entropy).
        """
        self._placement_kwargs = {
            "policy": policy,
            "replicas": replicas,
            "shards": shards,
            "vnodes": vnodes,
            "ship_interval": ship_interval,
            "anti_entropy_interval": anti_entropy_interval,
        }
        return self

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def create(self) -> Cluster:
        """Build and wire everything that was declared."""
        tracer = metrics = None
        if self._tracing:
            metrics = self._metrics if self._metrics is not None else MetricsRegistry()
            tracer = self._tracer
        sim = Simulator(seed=self._seed, metrics=metrics)
        if self._tracing and tracer is None:
            tracer = Tracer(clock=lambda: sim.now)
        sim.tracer = tracer
        cluster = Cluster(sim)
        cluster.tracer = tracer
        cluster.metrics = metrics

        cluster.retry_policy = self._retry_policy
        cluster.timeout_policy = self._timeout_policy
        cluster.batching = self._batching
        cluster.default_requests = {
            policy.entity_type: ReadRequest(
                level=policy.level, max_staleness=policy.max_staleness
            )
            for policy in self._policies
        }

        needs_network = (
            self._network_kwargs is not None
            or self._replica_count
            or self._chaos_kwargs is not None
            or self._topology_kwargs is not None
        )
        if needs_network:
            cluster.network = Network(sim, **(self._network_kwargs or {}))

        if self._placement_kwargs is not None and self._topology_kwargs is None:
            raise ValueError("with_placement requires with_topology")
        if self._topology_kwargs is not None:
            cluster.topology = self._build_topology()
            cluster.network.attach_topology(cluster.topology)
            if self._placement_kwargs is not None:
                if self._replica_count:
                    raise ValueError(
                        "with_placement replaces with_replicas: declare "
                        "one replication style, not both"
                    )
                cluster.replication, cluster.placement = self._build_geo(
                    sim, cluster
                )
                cluster.store = self._primary_store_of(cluster.replication)

        if self._replica_count:
            cluster.replication = self._build_replication(sim, cluster.network)
            cluster.store = self._primary_store_of(cluster.replication)

        for name in self._unit_names:
            cluster.units[name] = SerializationUnit(name, sim=sim)

        if self._ring_kwargs is not None:
            ring_kwargs = self._ring_kwargs
            for name in ring_kwargs["names"]:
                cluster.units[name] = SerializationUnit(name, sim=sim)
            cluster.ring = ConsistentHashRing(
                ring_kwargs["names"], vnodes=ring_kwargs["vnodes"]
            )
            cluster.directory = DynamicDirectory(cluster.ring)
            cluster.mover = EntityMover(cluster.units, cluster.directory)
            cluster.rebalancer = Rebalancer(
                cluster.mover,
                sim=sim,
                retry=self._retry_policy,
                timeout=self._timeout_policy,
                batch_size=ring_kwargs["batch_size"],
                batch_interval=ring_kwargs["batch_interval"],
            )

        if self._queue_kwargs is not None:
            queue_kwargs = dict(self._queue_kwargs)
            if self._retry_policy is not None:
                queue_kwargs.setdefault("retry", self._retry_policy)
            if self._timeout_policy is not None:
                queue_kwargs.setdefault("timeout", self._timeout_policy)
            cluster.queue = ReliableQueue(sim, **queue_kwargs)

        store_kwargs = self._store_kwargs
        if store_kwargs is None and cluster.store is None and (
            self._transactions_kwargs is not None
            or self._constraint_objs is not None
            or self._with_compensation
        ):
            store_kwargs = {"name": "store", "origin": "local"}
        if store_kwargs is not None:
            cluster.store = LSDBStore(
                clock=lambda: sim.now,
                tracer=tracer,
                metrics=metrics,
                **store_kwargs,
            )

        if cluster.store is not None:
            if self._constraint_objs is not None:
                cluster.constraints = ConstraintManager(
                    cluster.store, cluster.queue, clock=lambda: sim.now
                )
                for constraint in self._constraint_objs:
                    cluster.constraints.add(constraint)
            if self._transactions_kwargs is not None:
                tx_kwargs = dict(self._transactions_kwargs)
                tx_kwargs.setdefault("metrics", metrics)
                cluster.transactions = TransactionManager(
                    cluster.store,
                    sim=sim,
                    queue=cluster.queue,
                    constraints=cluster.constraints,
                    **tx_kwargs,
                )
            if self._with_compensation:
                cluster.compensation = CompensationManager(
                    cluster.store, queue=cluster.queue, clock=lambda: sim.now
                )

        if self._warehouse_kwargs is not None:
            source = cluster.store
            if source is None:
                raise ValueError(
                    "with_warehouse needs a source store: declare "
                    "with_replicas or with_store first"
                )
            warehouse_kwargs = dict(self._warehouse_kwargs)
            if self._batching is not None and self._batching.max_batch is not None:
                # The warehouse feed is a data-plane feed too: bound the
                # per-round fold to one frame's worth of events.
                warehouse_kwargs.setdefault("max_batch", self._batching.max_batch)
            cluster.warehouse = WarehouseExtract(sim, source, **warehouse_kwargs)

        if self._chaos_kwargs is not None:
            from repro.chaos.engine import ChaosEngine
            from repro.sim.rng import SeededRNG

            chaos_seed = self._chaos_kwargs["seed"]
            cluster.chaos = ChaosEngine(
                sim,
                cluster.network,
                profile=self._chaos_kwargs["profile"],
                rng=SeededRNG(chaos_seed) if chaos_seed is not None else None,
                topology=cluster.topology,
            )

        if self._front_door_kwargs is not None:
            from repro.frontdoor import FrontDoor

            cluster.front_door = FrontDoor.for_cluster(
                cluster, **self._front_door_kwargs
            )
        return cluster

    def _build_topology(self) -> Any:
        from repro.sim.topology import SiteTopology, WanLink

        kwargs = self._topology_kwargs
        return SiteTopology(
            kwargs["sites"],
            default_link=WanLink(
                latency=kwargs["wan_latency"],
                loss_probability=kwargs["wan_loss"],
            ),
            links=kwargs["links"],
        )

    def _build_geo(self, sim: Simulator, cluster: Cluster) -> tuple[Any, Any]:
        from repro.partition.placement import PlacementPolicy
        from repro.replication.geo import GeoReplicaGroup

        kwargs = self._placement_kwargs
        placement = kwargs["policy"]
        if placement is None:
            placement = PlacementPolicy(
                cluster.topology.sites,
                replicas=kwargs["replicas"],
                shards=kwargs["shards"],
                vnodes=kwargs["vnodes"],
            )
        elif tuple(placement.sites) != tuple(cluster.topology.sites):
            raise ValueError(
                f"placement sites {placement.sites} do not match "
                f"topology sites {cluster.topology.sites}"
            )
        group = GeoReplicaGroup(
            sim,
            cluster.network,
            cluster.topology,
            placement,
            ship_interval=kwargs["ship_interval"],
            anti_entropy_interval=kwargs["anti_entropy_interval"],
            batching=self._batching,
        )
        return group, placement

    def _build_replication(self, sim: Simulator, network: Network) -> Any:
        count, mode = self._replica_count, self._replica_mode
        options = dict(self._replica_kwargs)
        if mode in ("sync", "quorum"):
            # Cluster-wide policy defaults; explicit per-scheme options win.
            if self._retry_policy is not None:
                options.setdefault("retry", self._retry_policy)
            if self._timeout_policy is not None:
                options.setdefault("timeout", self._timeout_policy)
        else:
            # Wire batching covers the asynchronous feeds; sync/quorum
            # ship per-transaction frames regardless.
            options.setdefault("batching", self._batching)
        if mode == "sync":
            if count != 2:
                raise ValueError("sync replication is a primary/backup pair")
            return SyncPrimaryBackup(sim, network, **options)
        if mode == "master_slave":
            slave_ids = [f"slave-{i}" for i in range(1, count)]
            return MasterSlaveGroup(sim, network, "master", slave_ids, **options)
        if mode == "active_active":
            replica_ids = [f"r{i}" for i in range(1, count + 1)]
            return ActiveActiveGroup(sim, network, replica_ids, **options)
        if mode == "quorum":
            replica_ids = [f"q{i}" for i in range(1, count + 1)]
            return QuorumGroup(sim, network, replica_ids, **options)
        raise AssertionError(f"unhandled mode {mode!r}")  # pragma: no cover

    @staticmethod
    def _primary_store_of(scheme: Any) -> Optional[LSDBStore]:
        primary = getattr(scheme, "primary", None) or getattr(scheme, "master", None)
        if primary is not None:
            return primary.store
        replicas = getattr(scheme, "replicas", None)
        if isinstance(replicas, dict) and replicas:
            return next(iter(replicas.values())).store
        if isinstance(replicas, list) and replicas:
            return replicas[0].store
        return None
