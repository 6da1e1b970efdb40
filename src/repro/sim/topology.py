"""Site topology: named datacenters layered onto the flat network.

The simulator's :class:`~repro.sim.network.Network` is a single flat
fabric — every node one latency draw away from every other.  Real
deployments of the paper's mixed-consistency schemes are geo-distributed
(section 2.7-2.10: replicas that *cannot* all see every write promptly),
and the dominant term is the WAN link between sites, not the LAN hop
inside one.

A :class:`SiteTopology` names the sites, assigns node ids to them, and
gives every ordered site pair a :class:`WanLink` profile (extra one-way
latency plus an extra per-frame loss coin).  The network consults the
topology only when one is attached, and a link's loss coin is flipped
only when its probability is positive — so arming a topology adds **no
RNG draws** to same-site traffic and existing single-site runs stay
byte-identical.

The topology is also the unit of failure for geo chaos: site-level
partitions (one site cut off from the rest) and whole-site crashes
(every node in the site down) are drawn over *sites*, which is how a
soak fails over an entire datacenter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

__all__ = ["WanLink", "SiteTopology"]


@dataclass(frozen=True)
class WanLink:
    """The wire profile of one directed inter-site link.

    Attributes:
        latency: Extra one-way delay added to every frame crossing the
            link, on top of the network's base (LAN) draw.  Constant,
            not drawn — the WAN contribution never consumes randomness.
        loss_probability: Extra per-frame drop probability on this link,
            flipped after the network's global loss coin.  ``0.0`` (the
            default) consumes no randomness.
    """

    latency: float = 0.0
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"link latency must be >= 0, got {self.latency}")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1], got {self.loss_probability}"
            )


class SiteTopology:
    """Named sites, node->site assignment, and per-link WAN profiles.

    Args:
        sites: Site (datacenter) names; at least one, duplicates
            rejected.
        default_link: The :class:`WanLink` used for any ordered site
            pair without an explicit entry.
        links: Optional ``{(src_site, dst_site): WanLink}`` overrides.
            Entries are directional; :meth:`set_link` installs a
            symmetric pair in one call.

    Example:
        >>> topo = SiteTopology(["dc1", "dc2"], default_link=WanLink(30.0))
        >>> topo.assign("gw.dc1", "dc1"); topo.assign("gw.dc2", "dc2")
        >>> topo.link("dc1", "dc2").latency
        30.0
        >>> topo.wan_link_for("gw.dc1", "gw.dc1") is None
        True
    """

    def __init__(
        self,
        sites: Iterable[str],
        *,
        default_link: Optional[WanLink] = None,
        links: Optional[Mapping[tuple[str, str], WanLink]] = None,
    ):
        names = list(sites)
        if not names:
            raise ValueError("SiteTopology needs at least one site")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names in {names!r}")
        self._sites = tuple(sorted(names))
        self._site_set = set(self._sites)
        self.default_link = default_link if default_link is not None else WanLink()
        self._links: dict[tuple[str, str], WanLink] = {}
        #: Bumped by every :meth:`set_link`, so a reader that caches
        #: anything derived from link latencies (the geo read order)
        #: knows when to rebuild it.
        self.links_version = 0
        if links:
            for (src, dst), link in links.items():
                self.set_link(src, dst, link, symmetric=False)
        self._site_of: dict[str, str] = {}
        self._nodes: dict[str, list[str]] = {site: [] for site in self._sites}

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    @property
    def sites(self) -> tuple[str, ...]:
        """The site names, sorted."""
        return self._sites

    def assign(self, node_id: str, site: str) -> None:
        """Place ``node_id`` in ``site`` (reassignment moves it)."""
        if site not in self._site_set:
            raise ValueError(f"unknown site {site!r}; have {self._sites}")
        previous = self._site_of.get(node_id)
        if previous is not None:
            self._nodes[previous].remove(node_id)
        self._site_of[node_id] = site
        members = self._nodes[site]
        members.append(node_id)
        members.sort()

    def site_of(self, node_id: str) -> Optional[str]:
        """The site ``node_id`` is assigned to (``None`` if unassigned —
        unassigned nodes see no WAN behaviour at all)."""
        return self._site_of.get(node_id)

    def nodes_of(self, site: str) -> list[str]:
        """Node ids assigned to ``site``, sorted."""
        if site not in self._site_set:
            raise ValueError(f"unknown site {site!r}; have {self._sites}")
        return list(self._nodes[site])

    # ------------------------------------------------------------------ #
    # Links
    # ------------------------------------------------------------------ #

    def set_link(
        self, src: str, dst: str, link: WanLink, *, symmetric: bool = True
    ) -> None:
        """Install a link profile for ``src -> dst`` (and the reverse
        direction too, unless ``symmetric=False``); bumps
        :attr:`links_version`."""
        for site in (src, dst):
            if site not in self._site_set:
                raise ValueError(f"unknown site {site!r}; have {self._sites}")
        if src == dst:
            raise ValueError("a WAN link connects two distinct sites")
        self._links[(src, dst)] = link
        if symmetric:
            self._links[(dst, src)] = link
        self.links_version += 1

    def link(self, src_site: str, dst_site: str) -> Optional[WanLink]:
        """The :class:`WanLink` for an ordered site pair; ``None`` for
        same-site traffic (no WAN leg)."""
        if src_site == dst_site:
            return None
        return self._links.get((src_site, dst_site), self.default_link)

    def latency_between(self, src_site: str, dst_site: str) -> float:
        """One-way WAN latency between two sites (0 when co-located)."""
        link = self.link(src_site, dst_site)
        return link.latency if link is not None else 0.0

    def wan_link_for(
        self, src_node: str, dst_node: str
    ) -> Optional[tuple[str, str, WanLink]]:
        """``(src_site, dst_site, link)`` when the two nodes sit in
        different sites; ``None`` for same-site or unassigned nodes.
        This is the single lookup the network performs per send."""
        src_site = self._site_of.get(src_node)
        if src_site is None:
            return None
        dst_site = self._site_of.get(dst_node)
        if dst_site is None or dst_site == src_site:
            return None
        return (src_site, dst_site, self.link(src_site, dst_site))

    # ------------------------------------------------------------------ #
    # Fault units (consumed by repro.chaos)
    # ------------------------------------------------------------------ #

    def site_partition_groups(self, *isolated: str) -> list[list[str]]:
        """Partition groups that cut each named site off from the rest.

        Returns one group per isolated site plus one group holding every
        remaining assigned node — the shape
        :meth:`~repro.sim.network.Network.partition_into` and the
        failure injector take for a site-level partition.
        """
        if not isolated:
            raise ValueError("name at least one site to isolate")
        groups: list[list[str]] = []
        cut = set()
        for site in isolated:
            members = self.nodes_of(site)
            groups.append(members)
            cut.update(members)
        rest = sorted(node for node in self._site_of if node not in cut)
        groups.append(rest)
        return [group for group in groups if group]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SiteTopology({list(self._sites)!r}, "
            f"{len(self._site_of)} nodes assigned)"
        )
