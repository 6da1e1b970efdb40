"""Site-aware shard placement for geo-distributed partial replication.

Full replication ships every write to every site; at WAN prices that is
the dominant cost of running multi-datacenter (and the paper's
geo-distributed schemes, sections 2.7-2.10, never assume it).  Following
the group-based model of Sutra & Shapiro's *Fault-Tolerant Partial
Replication in Large-Scale Database Systems*, a :class:`PlacementPolicy`
carves the key space into ``shards`` hash slices and places ``replicas``
copies of each shard on distinct *sites*, so a site only hosts — and
only receives frames for — the shards placed on it.

Placement extends the PR 4 :class:`~repro.partition.ring.ConsistentHashRing`
construction one level up: every site owns ``vnodes`` pseudo-random arcs
of the same 128-bit MD5 circle, and a shard's replica set is the first
``replicas`` *distinct* sites met walking the circle from the shard's
token — a preference list, exactly the Dynamo construction.  The walk
gives the same exact monotonicity the flat ring has, now per replica
*set*:

* adding a site changes a shard's set only by (possibly) swapping one
  member for the new site — ``new_set <= old_set | {added}``;
* removing a site changes a shard's set only by replacing the removed
  member with the next candidate — ``new_set >= old_set - {removed}``.

Both are asserted as hypothesis properties in
``tests/test_placement_properties.py``.  The preference *order* also
matters: position 0 is the shard's home site (write coordinator and the
strong rung's authority), and failover walks the list left to right.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from repro.partition.ring import _key_token, _vnode_token

__all__ = ["PlacementPolicy", "diff_placements"]


def _shard_token(shard: int) -> int:
    """A shard's position on the site circle (same digest family as the
    entity ring, namespaced so shard 3 and key "3" never collide)."""
    return _key_token("__shard__", str(shard))


class PlacementPolicy:
    """Places ``replicas`` copies of each of ``shards`` shards across
    sites via a site-level consistent-hash ring.

    The policy is a value: placement depends only on the *set* of site
    names and the (replicas, shards, vnodes) shape, never on history —
    so two policies built from the same membership agree on every
    shard, and membership changes can be diffed offline with
    :func:`diff_placements`.

    Args:
        sites: Site names (order-insensitive; duplicates rejected).
        replicas: Copies of each shard.  Clamped to the site count —
            asking for 3 replicas over 2 sites places 2.
        shards: Hash slices the key space is carved into.  Entities map
            to shards by MD5, shards to sites by the ring walk.
        vnodes: Virtual nodes per site on the placement circle.

    Example:
        >>> policy = PlacementPolicy(["dc1", "dc2", "dc3"], replicas=2)
        >>> shard = policy.shard_of("order", "o-17")
        >>> len(policy.sites_for_shard(shard))
        2
        >>> policy.hosts(policy.home_site(shard), shard)
        True
    """

    def __init__(
        self,
        sites: Sequence[str],
        *,
        replicas: int = 2,
        shards: int = 16,
        vnodes: int = 64,
    ):
        names = list(sites)
        if not names:
            raise ValueError("PlacementPolicy needs at least one site")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names in {names!r}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self._sites = tuple(sorted(names))
        self.replicas = replicas
        self.shards = shards
        self.vnodes = vnodes
        entries = sorted(
            (_vnode_token(site, replica), site)
            for site in self._sites
            for replica in range(vnodes)
        )
        self._tokens = [token for token, _ in entries]
        self._owners = [owner for _, owner in entries]
        # The preference list of every shard is precomputed once: the
        # read/ship hot paths then cost one tuple lookup, and the lists
        # are what make the policy a comparable value.
        self._preference: tuple[tuple[str, ...], ...] = tuple(
            self._walk(shard) for shard in range(shards)
        )
        # The MD5 digest is the dearest step of routing a geo op, so each
        # key is hashed once per (immutable) policy: type -> key -> shard,
        # two levels like the arena's ref interning so a hit allocates no
        # tuple.  O(keys routed).
        self._shard_memo: dict[str, dict[str, int]] = {}

    def _walk(self, shard: int) -> tuple[str, ...]:
        """First ``min(replicas, M)`` distinct sites at or after the
        shard's token, in circle order — the Dynamo preference list."""
        want = min(self.replicas, len(self._sites))
        start = bisect_right(self._tokens, _shard_token(shard))
        chosen: list[str] = []
        n = len(self._owners)
        for offset in range(n):
            owner = self._owners[(start + offset) % n]
            if owner not in chosen:
                chosen.append(owner)
                if len(chosen) == want:
                    break
        return tuple(chosen)

    # ------------------------------------------------------------------ #
    # Placement queries
    # ------------------------------------------------------------------ #

    @property
    def sites(self) -> tuple[str, ...]:
        """The site names, sorted."""
        return self._sites

    def shard_of(self, entity_type: str, entity_key: str) -> int:
        """The shard an entity belongs to (MD5 over type/key, mod
        ``shards`` — stable across runs and processes), memoised per key."""
        by_key = self._shard_memo.get(entity_type)
        if by_key is None:
            by_key = self._shard_memo[entity_type] = {}
        shard = by_key.get(entity_key)
        if shard is None:
            shard = by_key[entity_key] = (
                _key_token(entity_type, entity_key) % self.shards
            )
        return shard

    def sites_for_shard(self, shard: int) -> tuple[str, ...]:
        """The shard's preference list: position 0 is the home site,
        failover walks left to right."""
        return self._preference[shard]

    def sites_for(self, entity_type: str, entity_key: str) -> tuple[str, ...]:
        """Preference list for the shard an entity hashes to."""
        return self._preference[self.shard_of(entity_type, entity_key)]

    def home_site(self, shard: int) -> str:
        """The first site on the shard's preference list."""
        return self._preference[shard][0]

    def hosts(self, site: str, shard: int) -> bool:
        """Whether ``site`` holds a replica of ``shard``."""
        return site in self._preference[shard]

    def shards_of(self, site: str) -> tuple[int, ...]:
        """Every shard hosted by ``site``, ascending."""
        return tuple(
            shard
            for shard in range(self.shards)
            if site in self._preference[shard]
        )

    def spread(self) -> dict[str, int]:
        """Shards hosted per site — the balance diagnostic."""
        counts = {site: 0 for site in self._sites}
        for preference in self._preference:
            for site in preference:
                counts[site] += 1
        return counts

    # ------------------------------------------------------------------ #
    # Membership (value semantics: every change is a new policy)
    # ------------------------------------------------------------------ #

    def with_site(self, site: str) -> "PlacementPolicy":
        """A new policy with ``site`` added."""
        if site in self._sites:
            raise ValueError(f"site {site!r} already placed")
        return PlacementPolicy(
            list(self._sites) + [site],
            replicas=self.replicas,
            shards=self.shards,
            vnodes=self.vnodes,
        )

    def without_site(self, site: str) -> "PlacementPolicy":
        """A new policy with ``site`` removed."""
        if site not in self._sites:
            raise ValueError(f"site {site!r} not placed")
        remaining = [name for name in self._sites if name != site]
        return PlacementPolicy(
            remaining,
            replicas=self.replicas,
            shards=self.shards,
            vnodes=self.vnodes,
        )

    def to_dict(self) -> dict:
        """JSON-friendly view (sorted, deterministic)."""
        return {
            "replicas": self.replicas,
            "shards": {
                str(shard): list(self._preference[shard])
                for shard in range(self.shards)
            },
            "sites": list(self._sites),
            "spread": self.spread(),
            "vnodes": self.vnodes,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlacementPolicy):
            return NotImplemented
        return (
            self._sites == other._sites
            and self.replicas == other.replicas
            and self.shards == other.shards
            and self.vnodes == other.vnodes
        )

    def __hash__(self) -> int:
        return hash((self._sites, self.replicas, self.shards, self.vnodes))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PlacementPolicy({list(self._sites)!r}, "
            f"replicas={self.replicas}, shards={self.shards})"
        )


def diff_placements(
    old: PlacementPolicy, new: PlacementPolicy
) -> dict[int, tuple[tuple[str, ...], tuple[str, ...]]]:
    """Per-shard ``(added_sites, removed_sites)`` between two policies.

    Only shards whose replica set changed appear; the planner-minimality
    property says a one-site membership change yields at most one added
    and at most one removed site per shard.
    """
    if old.shards != new.shards:
        raise ValueError(
            f"policies shard differently ({old.shards} vs {new.shards})"
        )
    moves: dict[int, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    for shard in range(old.shards):
        before = set(old.sites_for_shard(shard))
        after = set(new.sites_for_shard(shard))
        if before != after:
            moves[shard] = (
                tuple(sorted(after - before)),
                tuple(sorted(before - after)),
            )
    return moves
