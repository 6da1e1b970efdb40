"""Conformance of every read surface to the one read protocol
(repro.core.readpath): a surface implements ``serve``, and the shared
``read`` is ``serve`` stamped by ``deliver``."""

from __future__ import annotations

import inspect

import pytest

from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import (
    ConsistencyUnavailable,
    ReadRequest,
    ReadResult,
    ReadSurface,
    deliver,
    is_weaker,
)
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.partition.placement import PlacementPolicy
from repro.replication.active_active import ActiveActiveGroup
from repro.replication.batching import BatchPolicy
from repro.replication.geo import GeoReplicaGroup
from repro.replication.master_slave import MasterSlaveGroup
from repro.replication.quorum import QuorumGroup
from repro.replication.synchronous import SyncPrimaryBackup
from repro.replication.warehouse import WarehouseExtract
from repro.sim.network import Network
from repro.sim.scheduler import Simulator
from repro.sim.topology import SiteTopology, WanLink

ET, KEY = "order", "o-1"
FIELDS = {"total": 4}


def _world():
    sim = Simulator(seed=3)
    return sim, Network(sim, latency=2.0)


def _store():
    store = LSDBStore(name="s")
    store.insert(ET, KEY, FIELDS)
    return store


def _warehouse():
    sim, _ = _world()
    store = LSDBStore(name="oltp", clock=lambda: sim.now)
    store.insert(ET, KEY, FIELDS)
    warehouse = WarehouseExtract(sim, store, interval=10.0)
    sim.run(until=15.0)
    store.apply_delta(ET, KEY, Delta.add("total", 1))  # not extracted yet
    return warehouse


def _lagging(scheme, sim, write):
    """Ship one write, then leave a second one unshipped."""
    write(FIELDS)
    sim.run(until=35.0)
    write({"total": 5})
    sim.run(until=37.0)
    return scheme


def _async():
    """The asynchronous primary/backup pair: a group with one slave."""
    sim, net = _world()
    pair = MasterSlaveGroup(
        sim, net, "primary", ["backup"], ship_interval=10.0, batching=BatchPolicy()
    )
    return _lagging(pair, sim, lambda f: pair.write_insert(ET, KEY, f))


def _sync():
    sim, net = _world()
    pair = SyncPrimaryBackup(sim, net)
    pair.write_insert(ET, KEY, FIELDS)
    sim.run(until=20.0)
    pair.write_insert(ET, KEY, {"total": 5})  # backup has not acked yet
    sim.run(until=21.0)
    return pair


def _master_slave():
    sim, net = _world()
    group = MasterSlaveGroup(
        sim, net, "m", ["s1", "s2"], ship_interval=10.0, batching=BatchPolicy()
    )
    return _lagging(group, sim, lambda f: group.write_insert(ET, KEY, f))


def _active_active():
    sim, net = _world()
    group = ActiveActiveGroup(sim, net, ["r1", "r2", "r3"])
    group.write_insert("r1", ET, KEY, FIELDS)
    sim.run(until=20.0)
    group.write_set_fields("r2", ET, KEY, {"total": 5})  # r1 has not seen it
    sim.run(until=21.0)
    return group


def _geo():
    sim, net = _world()
    sites = ["dc1", "dc2", "dc3"]
    topology = SiteTopology(sites, default_link=WanLink(latency=30.0))
    net.attach_topology(topology)
    group = GeoReplicaGroup(
        sim, net, topology, PlacementPolicy(sites, replicas=2, shards=4)
    )
    return _lagging(group, sim, lambda f: group.write_set_fields(ET, KEY, f))


def _quorum():
    sim, net = _world()
    group = QuorumGroup(sim, net, ["q1", "q2", "q3"])
    group.write(ET, KEY, FIELDS)
    sim.run(until=20.0)
    return group


SURFACES = {
    "store": _store,
    "warehouse": _warehouse,
    "async": _async,
    "sync": _sync,
    "master_slave": _master_slave,
    "active_active": _active_active,
    "geo": _geo,
    "quorum": _quorum,
}


@pytest.fixture(params=list(SURFACES))
def surface(request):
    return SURFACES[request.param]()


def _answers_later(surface, level) -> bool:
    """The one override: a quorum's STRONG read is pending, not served."""
    return isinstance(surface, QuorumGroup) and level is ConsistencyLevel.STRONG


def _stamped(surface, request, site=None) -> ReadResult:
    state, level, staleness, served_by, served_site = surface.serve(
        ET, KEY, request.level, site=site
    )
    return deliver(
        state, request, level,
        staleness=staleness, served_by=served_by, site=served_site,
    )


def _fields(result: ReadResult) -> dict:
    return {name: getattr(result, name) for name in ReadResult.__slots__}


#: Weakest first.
REQUESTS = [
    ReadRequest(level=ConsistencyLevel.EXTRACT, tenant="t"),
    ReadRequest.eventual(),
    ReadRequest.bounded(1000.0),
    ReadRequest.bounded(0.5),
    ReadRequest.strong(),
]


def test_eight_surfaces_are_covered():
    assert len(SURFACES) == 8
    assert {type(build()) for build in SURFACES.values()} == _leaves(ReadSurface)


def test_read_is_serve_stamped_by_deliver(surface):
    for request in REQUESTS:
        if _answers_later(surface, request.level):
            continue
        got = surface.read(ET, KEY, request=request)
        assert isinstance(got, ReadResult)
        assert _fields(got) == _fields(_stamped(surface, request))


STRONG, BOUNDED, EVENTUAL = (
    ConsistencyLevel.STRONG,
    ConsistencyLevel.BOUNDED_STALENESS,
    ConsistencyLevel.EVENTUAL,
)


@pytest.mark.parametrize(
    "name, asked, delivered, served_by, staleness, total",
    [
        ("async", STRONG, STRONG, "primary", 0.0, 5),
        ("async", EVENTUAL, EVENTUAL, "backup", 2.0, 4),
        ("sync", STRONG, STRONG, "sync-primary", 0.0, 5),
        ("sync", BOUNDED, BOUNDED, "sync-backup", 1.0, 4),
        ("active_active", STRONG, EVENTUAL, "r1", 1.0, 4),
        ("active_active", BOUNDED, EVENTUAL, "r1", 1.0, 4),
        ("quorum", EVENTUAL, EVENTUAL, "q1", 18.0, 4),
    ],
)
def test_scheme_picks_the_copy_the_level_selects(
    name, asked, delivered, served_by, staleness, total
):
    result = SURFACES[name]().read(ET, KEY, request=ReadRequest(level=asked))
    assert result.delivered_level is delivered
    assert result.degraded == is_weaker(delivered, asked)
    assert (result.served_by, result.staleness) == (served_by, staleness)
    assert result.fields["total"] == total


def test_site_reaches_serve(surface):
    request = ReadRequest.eventual()
    got = surface.read(ET, KEY, request=request, site="dc2")
    assert _fields(got) == _fields(_stamped(surface, request, site="dc2"))
    if isinstance(surface, GeoReplicaGroup):
        assert got.site in surface.placement.sites_for_shard(
            surface.placement.shard_of(ET, KEY)
        )
    else:
        assert got.site == ""


def test_no_request_means_the_default_request(surface):
    got = surface.read(ET, KEY)
    assert isinstance(got, ReadResult)
    assert got.requested_level is ConsistencyLevel.STRONG
    if _answers_later(surface, ConsistencyLevel.STRONG):
        assert got.delivered_level is None  # pending, like ReadRequest()
        assert _fields(got) == _fields(surface.read(ET, KEY, request=ReadRequest()))
    else:
        assert _fields(got) == _fields(_stamped(surface, ReadRequest()))


def test_other_call_forms_are_type_errors(surface):
    if not isinstance(surface, QuorumGroup):  # its third positional is on_done
        with pytest.raises(TypeError):
            surface.read("node", ET, KEY)
    with pytest.raises(TypeError):
        surface.read(ET, KEY, None, ReadRequest())
    with pytest.raises(TypeError):
        surface.read(ET, KEY, consistency=ConsistencyLevel.STRONG)


def test_no_degrade_raises_exactly_where_the_level_is_not_held(surface):
    for level in ConsistencyLevel:
        strict = ReadRequest(level=level, allow_degraded=False)
        if _answers_later(surface, level):
            with pytest.raises(ConsistencyUnavailable):
                surface.serve(ET, KEY, level)
            assert surface.read(ET, KEY, request=strict).delivered_level is None
            continue
        held = surface.serve(ET, KEY, level)[1]
        if is_weaker(held, level):
            with pytest.raises(ConsistencyUnavailable):
                surface.read(ET, KEY, request=strict)
            assert surface.read(ET, KEY, request=ReadRequest(level=level)).degraded
        else:
            result = surface.read(ET, KEY, request=strict)
            assert result.delivered_level is held and not result.degraded


def _quiesced(surface):
    """``surface`` once every write has shipped, been acked or extracted."""
    sim = getattr(surface, "sim", None)
    if sim is not None:
        sim.run(until=sim.now + 500.0)
    return surface


def test_a_surface_serves_exactly_what_it_declares(surface):
    """``levels`` is a promise the door builds rungs on.  Quiesced, a
    surface serves each declared level as asked; asked a level it does
    not declare, it delivers a weaker one or raises — unless that level
    is weaker than all it declares (a fold answers an extract honestly)."""
    surface = _quiesced(surface)
    declared = surface.levels
    assert declared and list(declared) == sorted(declared, key=lambda l: l.strength)
    weakest = declared[-1]
    for level in ConsistencyLevel:
        try:
            held = surface.serve(ET, KEY, level)[1]
        except ConsistencyUnavailable:
            assert level not in declared
            continue
        if level in declared:
            assert held is level
        else:
            assert is_weaker(held, level) or is_weaker(level, weakest), (level, held)


def _subclasses(cls) -> set[type]:
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | _subclasses(sub)
    return found


def _leaves(cls) -> set[type]:
    """The library's concrete surfaces (test fakes elsewhere excluded)."""
    return {
        sub
        for sub in _subclasses(cls)
        if sub.__module__.startswith("repro.") and not inspect.isabstract(sub)
    }


def test_only_the_base_and_the_quorum_define_read():
    definers = {
        cls for cls in {ReadSurface} | _subclasses(ReadSurface) if "read" in vars(cls)
    }
    assert definers == {ReadSurface, QuorumGroup}
