"""Property-based tests for site-aware placement: the geo contract.

The :class:`~repro.partition.placement.PlacementPolicy` lifts the PR 4
consistent-hash construction one level up — sites own vnode arcs, a
shard's replica set is the first ``replicas`` distinct sites on the
circle walk.  The lift must preserve the ring's *exact* guarantees at
the replica-set level: adding a site may only pull shards **to** it
(one swap per shard at most), removing a site may only push its shards
**from** it, and two policies built from the same membership agree on
everything.  All of that is asserted here over hypothesis-generated
memberships, alongside coverage (every shard gets ``min(M, N)``
distinct sites), the :func:`diff_placements` planner-minimality
property, and the per-key shard memo answering exactly what the digest
does.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.placement import PlacementPolicy, diff_placements
from repro.partition.ring import _key_token

#: A fixed entity population for the routing assertions.
KEYS = [("order", f"k{index}") for index in range(200)]

SITE_NAMES = st.lists(
    st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8),
    min_size=1,
    max_size=6,
    unique=True,
)
EXTRA_SITE = st.text(
    alphabet=string.ascii_uppercase, min_size=1, max_size=8
)  # uppercase: never collides with SITE_NAMES draws
REPLICAS = st.integers(min_value=1, max_value=4)
SHARDS = st.sampled_from([1, 8, 16])
VNODES = st.sampled_from([1, 8, 64])
#: (entity_type, entity_key) pairs over small alphabets, so one key
#: often recurs under another type and whole pairs repeat.
ENTITY_REFS = st.lists(
    st.tuples(
        st.sampled_from(["", "order", "stock"]),
        st.text(alphabet="ab1", max_size=3),
    ),
    min_size=1,
    max_size=30,
)


class TestCoverage:
    @given(sites=SITE_NAMES, replicas=REPLICAS, shards=SHARDS, vnodes=VNODES)
    @settings(max_examples=40, deadline=None)
    def test_every_shard_gets_min_m_n_distinct_sites(
        self, sites, replicas, shards, vnodes
    ):
        policy = PlacementPolicy(
            sites, replicas=replicas, shards=shards, vnodes=vnodes
        )
        want = min(len(sites), replicas)
        for shard in range(shards):
            placed = policy.sites_for_shard(shard)
            assert len(placed) == want
            assert len(set(placed)) == want  # distinct sites, no doubles
            assert set(placed) <= set(sites)

    @given(sites=SITE_NAMES, replicas=REPLICAS, shards=SHARDS)
    @settings(max_examples=40, deadline=None)
    def test_queries_agree_with_the_preference_list(
        self, sites, replicas, shards
    ):
        policy = PlacementPolicy(sites, replicas=replicas, shards=shards)
        for entity_type, entity_key in KEYS[:50]:
            shard = policy.shard_of(entity_type, entity_key)
            assert 0 <= shard < shards
            placed = policy.sites_for_shard(shard)
            assert policy.sites_for(entity_type, entity_key) == placed
            assert policy.home_site(shard) == placed[0]
            for site in sites:
                assert policy.hosts(site, shard) == (site in placed)

    @given(sites=SITE_NAMES, replicas=REPLICAS, shards=SHARDS)
    @settings(max_examples=40, deadline=None)
    def test_shards_of_inverts_sites_for_shard(self, sites, replicas, shards):
        policy = PlacementPolicy(sites, replicas=replicas, shards=shards)
        for site in sites:
            hosted = set(policy.shards_of(site))
            expected = {
                shard
                for shard in range(shards)
                if site in policy.sites_for_shard(shard)
            }
            assert hosted == expected
        spread = policy.spread()
        assert sum(spread.values()) == shards * min(len(sites), replicas)


class TestMonotonicity:
    @given(sites=SITE_NAMES, extra=EXTRA_SITE, replicas=REPLICAS, vnodes=VNODES)
    @settings(max_examples=40, deadline=None)
    def test_adding_a_site_moves_replicas_only_to_it(
        self, sites, extra, replicas, vnodes
    ):
        policy = PlacementPolicy(
            sites, replicas=replicas, shards=16, vnodes=vnodes
        )
        grown = policy.with_site(extra)
        for shard in range(policy.shards):
            before = set(policy.sites_for_shard(shard))
            after = set(grown.sites_for_shard(shard))
            # The new member can only be the added site; at most one
            # old member was displaced to make room for it.
            assert after <= before | {extra}
            assert len(before - after) <= 1

    @given(sites=SITE_NAMES, replicas=REPLICAS, vnodes=VNODES)
    @settings(max_examples=40, deadline=None)
    def test_removing_a_site_moves_only_its_replicas(
        self, sites, replicas, vnodes
    ):
        if len(sites) < 2:
            return  # removing the last site is rejected (validated below)
        policy = PlacementPolicy(
            sites, replicas=replicas, shards=16, vnodes=vnodes
        )
        victim = policy.sites[0]
        shrunk = policy.without_site(victim)
        for shard in range(policy.shards):
            before = set(policy.sites_for_shard(shard))
            after = set(shrunk.sites_for_shard(shard))
            # Surviving members keep their copies; the victim's slot
            # goes to at most one replacement site.
            assert before - {victim} <= after
            assert victim not in after
            assert len(after - before) <= 1

    @given(sites=SITE_NAMES, extra=EXTRA_SITE, replicas=REPLICAS)
    @settings(max_examples=25, deadline=None)
    def test_shard_routing_is_unchanged_by_membership(
        self, sites, extra, replicas
    ):
        """Entity-to-shard mapping is pure MD5 — membership changes move
        replica *sets*, never which shard a key belongs to."""
        policy = PlacementPolicy(sites, replicas=replicas, shards=16)
        grown = policy.with_site(extra)
        for key in KEYS[:50]:
            assert policy.shard_of(*key) == grown.shard_of(*key)


class TestShardMemo:
    """``shard_of`` hashes each key once per policy; the memo must be
    invisible — every answer is the digest's, first call or repeat, on
    the policy or on any policy derived from it."""

    @given(
        sites=SITE_NAMES,
        extra=EXTRA_SITE,
        shards=SHARDS,
        keys=ENTITY_REFS,
    )
    @settings(max_examples=40, deadline=None)
    def test_memoised_shard_is_the_digest_shard(self, sites, extra, shards, keys):
        policy = PlacementPolicy(sites, replicas=2, shards=shards)
        expected = [_key_token(t, k) % shards for t, k in keys]
        assert [policy.shard_of(t, k) for t, k in keys] == expected
        assert [policy.shard_of(t, k) for t, k in keys] == expected  # memo hits
        derived = [policy.with_site(extra)]
        if len(policy.sites) > 1:
            derived.append(policy.without_site(policy.sites[0]))
        for other in derived:
            assert [other.shard_of(t, k) for t, k in reversed(keys)] == expected[::-1]
            assert [other.sites_for(t, k) for t, k in keys] == [
                other.sites_for_shard(shard) for shard in expected
            ]
        # Routing leaves the policy's value untouched.
        assert policy == PlacementPolicy(sites, replicas=2, shards=shards)
        assert hash(policy) == hash(PlacementPolicy(sites, replicas=2, shards=shards))


class TestStability:
    @given(sites=SITE_NAMES, replicas=REPLICAS, vnodes=VNODES)
    @settings(max_examples=40, deadline=None)
    def test_identical_construction_identical_placement(
        self, sites, replicas, vnodes
    ):
        policy_a = PlacementPolicy(
            sites, replicas=replicas, shards=16, vnodes=vnodes
        )
        policy_b = PlacementPolicy(
            sites, replicas=replicas, shards=16, vnodes=vnodes
        )
        assert policy_a == policy_b
        for shard in range(16):
            assert policy_a.sites_for_shard(shard) == policy_b.sites_for_shard(
                shard
            )

    @given(sites=SITE_NAMES, replicas=REPLICAS)
    @settings(max_examples=40, deadline=None)
    def test_membership_is_a_set_not_a_sequence(self, sites, replicas):
        policy = PlacementPolicy(sites, replicas=replicas, shards=16)
        reversed_policy = PlacementPolicy(
            list(reversed(sites)), replicas=replicas, shards=16
        )
        for shard in range(16):
            assert policy.sites_for_shard(shard) == reversed_policy.sites_for_shard(
                shard
            )

    def test_placement_pinned_across_processes(self):
        """MD5, not salted ``hash``: geo placements must never drift (a
        drift would silently reship every shard across the WAN)."""
        policy = PlacementPolicy(["dc1", "dc2", "dc3"], replicas=2, shards=6)
        preference = [list(policy.sites_for_shard(s)) for s in range(6)]
        assert preference == [
            ["dc1", "dc3"],
            ["dc1", "dc3"],
            ["dc1", "dc3"],
            ["dc2", "dc3"],
            ["dc2", "dc3"],
            ["dc2", "dc3"],
        ]


class TestPlannerMinimality:
    @given(sites=SITE_NAMES, extra=EXTRA_SITE, replicas=REPLICAS)
    @settings(max_examples=40, deadline=None)
    def test_diff_contains_exactly_the_disagreements(
        self, sites, extra, replicas
    ):
        policy = PlacementPolicy(sites, replicas=replicas, shards=16)
        grown = policy.with_site(extra)
        moves = diff_placements(policy, grown)
        for shard in range(16):
            before = set(policy.sites_for_shard(shard))
            after = set(grown.sites_for_shard(shard))
            if before == after:
                assert shard not in moves
            else:
                added, removed = moves[shard]
                assert set(added) == after - before
                assert set(removed) == before - after

    @given(sites=SITE_NAMES, extra=EXTRA_SITE, replicas=REPLICAS)
    @settings(max_examples=40, deadline=None)
    def test_one_membership_change_is_one_swap_per_shard(
        self, sites, extra, replicas
    ):
        """A single site add/remove costs each shard at most one
        bootstrap and one drain — the WAN bill of elasticity is bounded
        per shard, exactly like the flat ring's key movement."""
        policy = PlacementPolicy(sites, replicas=replicas, shards=16)
        diffs = [diff_placements(policy, policy.with_site(extra))]
        if len(policy.sites) > 1:
            diffs.append(
                diff_placements(policy, policy.without_site(policy.sites[0]))
            )
        for moves in diffs:
            for added, removed in moves.values():
                assert len(added) <= 1
                assert len(removed) <= 1

    def test_diff_rejects_mismatched_shard_counts(self):
        with pytest.raises(ValueError):
            diff_placements(
                PlacementPolicy(["a"], shards=8), PlacementPolicy(["a"], shards=16)
            )


class TestValidation:
    def test_rejects_empty_membership(self):
        with pytest.raises(ValueError):
            PlacementPolicy([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PlacementPolicy(["dc1", "dc1"])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PlacementPolicy(["dc1"], replicas=0)
        with pytest.raises(ValueError):
            PlacementPolicy(["dc1"], shards=0)
        with pytest.raises(ValueError):
            PlacementPolicy(["dc1"], vnodes=0)

    def test_rejects_adding_existing_site(self):
        with pytest.raises(ValueError):
            PlacementPolicy(["dc1", "dc2"]).with_site("dc1")

    def test_rejects_removing_unknown_site(self):
        with pytest.raises(ValueError):
            PlacementPolicy(["dc1", "dc2"]).without_site("dc3")
