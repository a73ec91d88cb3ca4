import sys
from collections import deque
from itertools import combinations, permutations as iter_permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoseq import cuts
from monoseq.cuts import min_height_reducing_set, prune
from monoseq.decomposition import decompose
from monoseq.errors import InvariantError, ValidationError
from monoseq.perms import Permutation, build_tau, canonical_form
from monoseq.posets import (
    antichain_poset,
    chain_poset,
    count_antichains_of_size,
    count_chains_of_size,
    disjoint_chains_poset,
    height,
    poset_from_perm,
    poset_from_relation,
    width,
)

from conftest import permutations_st, random_dag


def brute_min_hitting_set(P):
    """Lexicographically least smallest set meeting every maximum chain, by subset search.

    ``combinations`` of the sorted universe yields each size's sets in
    lexicographic order, so the first hitting set found is that one.
    """
    h = height(P)
    dec = decompose(P)
    chains = []

    def extend(chain, level):
        if level == h:
            chains.append(frozenset(chain))
            return
        for y in dec.a_prime[level]:
            if P.less(chain[-1], y):
                chain.append(y)
                extend(chain, level + 1)
                chain.pop()

    for x in dec.a_prime[0]:
        extend([x], 1)
    universe = sorted(set().union(*chains))
    for size in range(1, len(universe) + 1):
        for cand in combinations(universe, size):
            s = set(cand)
            if all(s & ch for ch in chains):
                return list(cand)


class TestMinHeightReducingSet:
    def test_rejects_the_empty_poset(self):
        with pytest.raises(ValidationError, match="empty poset"):
            min_height_reducing_set(poset_from_relation(0, []))

    def test_chain_needs_one_element(self):
        assert min_height_reducing_set(chain_poset(5)) == [0]

    def test_disjoint_chains_need_a_transversal(self):
        cut = min_height_reducing_set(disjoint_chains_poset([3, 3, 3]))
        assert len(cut) == 3

    def test_tau_poset_has_one_long_block(self):
        cut = min_height_reducing_set(poset_from_perm(build_tau(3, 13)))
        assert len(cut) == 1

    def test_antichain_requires_everything(self):
        assert len(min_height_reducing_set(antichain_poset(4))) == 4

    def test_deterministic_lexicographic_choice(self):
        P = chain_poset(4)
        assert min_height_reducing_set(P) == min_height_reducing_set(P) == [0]

    @given(permutations_st(min_n=2, max_n=12), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_minimum(self, p, rng):
        # A permutation poset and a witness-free order that need not have dimension 2.
        for P in (poset_from_perm(p), random_dag(rng, rng.randint(2, 9))):
            assert min_height_reducing_set(P) == brute_min_hitting_set(P), P.relation_pairs()

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_under_any_labeling(self, rng):
        # random_dag relates only i < j, so low ids sit low in the order and the
        # cut nearest the source is often the least one.  Relabeling breaks that.
        P = random_dag(rng, rng.randint(2, 9))
        label = list(range(P.n))
        rng.shuffle(label)
        Q = poset_from_relation(P.n, [(label[x], label[y]) for x, y in P.relation_pairs()])
        assert min_height_reducing_set(Q) == brute_min_hitting_set(Q), Q.relation_pairs()

    def test_least_ids_win_over_low_levels(self):
        assert min_height_reducing_set(poset_from_relation(3, [(2, 1), (1, 0)])) == [0]

    def test_witness_free_cuts_are_pinned(self):
        # Without augmenting along reverse residual edges the flow falls short
        # here, and the cut read off the residual graph costs more than it.
        P = poset_from_relation(6, [(0, 3), (1, 3), (1, 4), (2, 3)])
        assert min_height_reducing_set(P) == [1, 3]
        Q = poset_from_relation(8, [(0, 2), (0, 3), (0, 4), (0, 7), (1, 2), (1, 4), (2, 4), (3, 7)])
        assert min_height_reducing_set(Q) == [0, 1]

    def test_wide_cut_takes_one_augmenting_path_per_chain(self, monkeypatch):
        # Each path carries its bottleneck, a vertex cost near 2^300, so
        # augmenting one unit at a time would not finish.  All 100 paths
        # are shortest, so one breadth-first search levels them all and one
        # more finds the sink cut off.
        searches = []

        class CountingDeque(deque):
            def __init__(self, *args):
                searches.append(None)
                if len(searches) > 2:
                    raise RuntimeError("more searches than path lengths")
                super().__init__(*args)

        monkeypatch.setattr(cuts, "deque", CountingDeque)
        assert min_height_reducing_set(disjoint_chains_poset([3] * 100)) == list(range(0, 300, 3))
        assert len(searches) == 2

    def test_dense_layered_order_takes_one_search_per_path_length(self, monkeypatch):
        # Every element of a level lies below every element of the next, so
        # the 10-element cut meets paths that share vertices; one shortest
        # augmenting path per search took 181 of them.
        searches = []

        class CountingDeque(deque):
            def __init__(self, *args):
                searches.append(None)
                super().__init__(*args)

        levels, w = 20, 10
        pairs = [(a * w + i, (a + 1) * w + j) for a in range(levels - 1) for i in range(w) for j in range(w)]
        P = poset_from_relation(levels * w, pairs)
        monkeypatch.setattr(cuts, "deque", CountingDeque)
        assert min_height_reducing_set(P) == list(range(w))
        assert len(searches) == 2

    def test_cut_not_matching_the_flow_raises(self, monkeypatch):
        max_flow = cuts._FlowNet.max_flow

        def off_by_one(self, s, t):
            flow, source_side = max_flow(self, s, t)
            return flow + 1, source_side

        monkeypatch.setattr(cuts._FlowNet, "max_flow", off_by_one)
        with pytest.raises(InvariantError):
            min_height_reducing_set(chain_poset(3))

    def test_leaves_recursion_limit(self, default_recursion_limit):
        min_height_reducing_set(chain_poset(600))
        assert sys.getrecursionlimit() == default_recursion_limit

    @given(permutations_st(min_n=2, max_n=12))
    @settings(max_examples=60, deadline=None)
    def test_deletion_reduces_height_by_exactly_one(self, p):
        P = poset_from_perm(p)
        cut = min_height_reducing_set(P)
        assert height(P.delete(cut)) == height(P) - 1


class TestPrune:
    def test_chain_fully_pruned_by_deletions(self):
        result = prune(chain_poset(3), 2, 1)
        assert result.poset.n == 0
        assert len(result.rounds) == 3
        assert all(r.removed is not None and not r.flipped for r in result.rounds)

    def test_antichain_flips_then_drains(self):
        result = prune(antichain_poset(5), 2, 2)
        assert result.rounds[0].flipped and result.rounds[0].removed is None
        assert result.poset.n == 0

    def test_fixpoint_returned_unchanged(self):
        U = disjoint_chains_poset([3, 3])
        result = prune(U, 2, 1)
        assert result.poset.above == U.above
        assert result.rounds == []

    def test_requires_witness(self):
        with pytest.raises(ValidationError):
            prune(poset_from_relation(3, [(0, 1)]), 2, 1)

    def test_rejects_bad_t(self):
        with pytest.raises(ValidationError):
            prune(chain_poset(3), 2, 0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError, match="k must be >= 1"):
            prune(chain_poset(3), 0, 1)

    @given(permutations_st(min_n=1, max_n=10), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_terminates_at_fixpoint_or_empty(self, p, t):
        result = prune(poset_from_perm(p), 2, t)
        Q = result.poset
        if Q.n > 0:
            assert len(min_height_reducing_set(Q)) > t
            assert height(Q) >= width(Q)


class TestBottleneckFreeSurplusConclusion:
    """Exhaustive desk-scale check of the large-surplus dichotomy.

    For posets with surplus >= s and no height-reducing set of s/2
    elements, there are either 2^d antichains of size k+1 or
    2^floor(s/2d) maximum chains.  Asymptotically this is a theorem; here
    it is checked outright on small instances (orbit representatives of
    permutation posets up to n = 7, random ones up to n = 10).
    """

    def _check(self, P, k, d, s):
        if P.n - height(P) * k < s:
            return None
        if 2 * len(min_height_reducing_set(P)) <= s:
            return None
        antichains = count_antichains_of_size(P, k + 1)
        max_chains = count_chains_of_size(P, height(P))
        return antichains >= 2**d or max_chains >= 2 ** (s // (2 * d))

    def test_exhaustive_small(self):
        checked = 0
        for n in range(2, 8):
            seen = set()
            for vals in iter_permutations(range(1, n + 1)):
                canon = canonical_form(vals)
                if canon in seen:
                    continue
                seen.add(canon)
                P = poset_from_perm(Permutation(canon))
                for k in (1, 2, 3):
                    for s in range(1, 5):
                        for d in range(1, k + 1):
                            outcome = self._check(P, k, d, s)
                            if outcome is not None:
                                checked += 1
                                assert outcome, (canon, k, d, s)
        assert checked > 0

    @given(permutations_st(min_n=8, max_n=10))
    @settings(max_examples=30, deadline=None)
    def test_random_larger(self, p):
        P = poset_from_perm(p)
        for k in (2, 3):
            for s in (2, 4):
                for d in range(1, k + 1):
                    outcome = self._check(P, k, d, s)
                    if outcome is not None:
                        assert outcome
