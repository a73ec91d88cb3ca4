import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoseq.cuts import min_height_reducing_set
from monoseq.decomposition import (
    decompose,
    disjoint_chain_cover,
    index_sets,
    verify_example_structure,
)
from monoseq.errors import ValidationError
from monoseq.perms import Permutation, build_sigma_extremal, build_tau
from monoseq.posets import (
    antichain_poset,
    chain_poset,
    count_antichains_of_size,
    count_chains_of_size,
    disjoint_chains_poset,
    poset_from_perm,
    poset_from_relation,
)

from conftest import list_matching, permutations_st, random_dag, random_permutation


def list_chain_cover(P, i, j):
    """The chains of disjoint_chain_cover, built the list way: adjacency lists
    filtered from dec.hasse, matched by the reference list matcher."""
    dec = decompose(P)
    chains = [[y] for y in dec.a_prime[j - 1]]
    for m in range(j - 1, i - 1, -1):
        heads = {ch[0]: ch for ch in chains}
        adjacency = {x: [] for x in dec.a_prime[m - 1]}
        for x, y in dec.hasse[m - 1]:
            if x in adjacency and y in heads:
                adjacency[x].append(y)
        chains = [[x] + heads[y] for x, y in sorted(list_matching(adjacency).items())]
    return chains


class TestDecompose:
    def test_chain(self):
        dec = decompose(chain_poset(5))
        assert [len(lvl) for lvl in dec.levels] == [1] * 5
        assert dec.u == [1] * 5
        assert dec.sigma == [1] * 5

    def test_disjoint_chains(self):
        dec = decompose(disjoint_chains_poset([4, 4, 4]))
        assert [len(lvl) for lvl in dec.levels] == [3, 3, 3, 3]
        assert dec.sigma == [3, 3, 3, 3]
        assert all(u == 1 for u in dec.u)

    def test_sigma_minimal_level(self):
        dec = decompose(poset_from_perm(build_sigma_extremal(3, 1)))
        assert len(dec.levels[0]) == 4

    def test_b_and_d_sets_on_sigma(self):
        # In the level-1/level-2 graph of this poset every live upper element
        # has two lower neighbors, so B_2 is empty and D_2 is everything.
        dec = decompose(poset_from_perm(build_sigma_extremal(3, 1)))
        assert dec.b[1] == []
        assert sorted(dec.d[1]) == sorted(dec.levels[1])

    @given(permutations_st(max_n=16))
    @settings(max_examples=120, deadline=None)
    def test_structure_laws(self, p):
        P = poset_from_perm(p)
        dec = decompose(P)
        h = dec.h

        # Levels partition the ground set and each is an antichain.
        seen = sorted(x for lvl in dec.levels for x in lvl)
        assert seen == list(range(P.n))
        for lvl in dec.levels:
            assert not any(P.comparable(x, y) for x in lvl for y in lvl if x < y)

        # Every non-minimal live element keeps at least one lower neighbor,
        # and the tail-count recurrence holds level by level.
        for i in range(h - 1):
            upper = dec.levels[i + 1]
            down = {y: 0 for y in upper}
            for x, y in dec.hasse[i]:
                down[y] += 1
            assert all(down[y] >= 1 for y in upper)
            for x in dec.levels[i]:
                assert dec.u[x] == sum(dec.u[y] for (xx, y) in dec.hasse[i] if xx == x)

        # Sigma is monotone, with equality exactly when every live upper
        # element has a single lower neighbor.
        for i in range(h - 1):
            assert dec.sigma[i] >= dec.sigma[i + 1]
            live_upper = set(dec.a_prime[i + 1])
            degree_one = set(dec.b[i + 1])
            if dec.sigma[i] == dec.sigma[i + 1]:
                assert live_upper == degree_one
            else:
                assert live_upper != degree_one

        # No inter-level comparability from a live upper element down to a
        # dead lower element.
        for i in range(h - 1):
            dead_lower = set(dec.levels[i]) - set(dec.a_prime[i])
            live_upper = set(dec.a_prime[i + 1])
            assert not any(x in dead_lower and y in live_upper for x, y in dec.hasse[i])

        # The top sigma counts the maximum chains.
        assert dec.sigma[0] == count_chains_of_size(P, h)

    @given(permutations_st(min_n=4, max_n=25), st.integers(min_value=2, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_oversized_level_antichain_floor(self, p, k):
        # For each level of size >= k+1, the level plus its degree-one live
        # successors holds at least 2^min(k, |B|) antichains of size k+1,
        # and sigma drops by at least the live-successor excess.
        P = poset_from_perm(p)
        dec = decompose(P)
        for i in range(dec.h - 1):
            if len(dec.levels[i]) < k + 1:
                continue
            b = dec.b[i + 1]
            sub = P.induced(sorted(set(dec.levels[i]) | set(b)))
            found = count_antichains_of_size(sub, k + 1)
            assert found >= 2 ** min(k, len(b))
            assert dec.sigma[i] >= dec.sigma[i + 1] + len(dec.a_prime[i + 1]) - len(b)


class TestIndexSets:
    def test_sigma_f_set(self):
        P = poset_from_perm(build_sigma_extremal(3, 1))
        ix = index_sets(P, 3)
        assert ix.f == frozenset({1})

    def test_disjoint_chains_empty_f(self):
        ix = index_sets(disjoint_chains_poset([4, 4, 4]), 3)
        assert ix.f == frozenset()

    def test_antichain_f(self):
        assert index_sets(antichain_poset(4), 3).f == frozenset({1})

    def test_surplus_field(self):
        P = poset_from_perm(build_tau(3, 13))
        assert index_sets(P, 3).surplus == -2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_primed_sets_match_their_definitions(self, seed):
        # Random permutations of 30 at k = 3 have nonempty f_prime, so
        # f_double_prime is built too.  Levels and u are recounted from the
        # order alone: level(x) is the longest chain ending at x, and u(x)
        # the chains of h - level(x) + 1 elements with minimum x.
        P = poset_from_perm(random_permutation(random.Random(seed), 30))
        k, n = 3, P.n
        level = [0] * n
        for x in sorted(range(n), key=lambda x: P.below[x].bit_count()):
            level[x] = 1 + max((level[y] for y in range(n) if P.less(y, x)), default=0)
        h = max(level)
        chains = [[1] * n]  # chains[m - 1][x]: chains of m elements with minimum x
        for _ in range(h - 1):
            last = chains[-1]
            chains.append([sum(last[y] for y in range(n) if P.less(x, y)) for x in range(n)])
        u = [chains[h - level[x]][x] for x in range(n)]

        def size(i, least_u=0):
            return sum(1 for x in range(n) if level[x] == i and u[x] >= least_u)

        f_prime = {i for i in range(1, h) if size(i) - size(i, 1) + size(i + 1, 1) >= k + 1}
        f_double_prime = {
            i
            for i in range(1, max(f_prime))
            if size(i) - size(i, 2) + size(i + 1, 2) >= k + 1
        }
        ix = index_sets(P, k)
        assert f_double_prime and (ix.f_prime, ix.f_double_prime) == (f_prime, f_double_prime)
        if seed == 1:
            assert (f_prime, f_double_prime) == ({1, 2, 3, 4}, {1, 2, 3})

    def test_threshold_absent_in_degenerate_range(self):
        assert index_sets(poset_from_perm(build_tau(3, 12)), 3).s is None

    def test_threshold_never_understates(self):
        import math

        P = poset_from_perm(build_sigma_extremal(3, 1))
        ix = index_sets(P, 3)
        # n = 13, k = 3: ell = 1, q = 1 so the exact value is
        # (1 + 1/1)*3 + 50*sqrt(3)*log2(3).
        exact = (1 + 1 / 1) * 3 + 50 * math.sqrt(3) * math.log2(3)
        assert ix.s is not None and float(ix.s) >= exact


class TestDisjointChainCover:
    def test_disjoint_chains_full_cover(self):
        U = disjoint_chains_poset([4, 4, 4])
        res = disjoint_chain_cover(U, 1, 4)
        assert len(res.chains) == 3 and res.d == 0 and not res.violations

    def test_sigma_rest_cover(self):
        P = poset_from_perm(build_sigma_extremal(3, 1))
        rest = P.delete(decompose(P).levels[0])
        res = disjoint_chain_cover(rest, 1, 3)
        assert len(res.chains) == 3 and res.d == 0

    def test_two_to_one_bottleneck(self):
        V = poset_from_relation(3, [(0, 2), (1, 2)])
        res = disjoint_chain_cover(V, 1, 2)
        assert len(res.chains) == 1 and res.d == 1
        assert res.violations == [(2, 1)]

    def test_unequal_levels_can_keep_fewer_than_the_most_disjoint_chains(self):
        # Live levels [0, 3], [1, 2, 4], [5, 6]: the top step matches 1-6 and
        # 2-5, and only 0 extends them, though 0<1<6 and 3<4<5 are disjoint.
        P = poset_from_relation(7, [(0, 1), (0, 2), (1, 5), (1, 6), (2, 5), (3, 4), (4, 5)])
        res = disjoint_chain_cover(P, 1, 3)
        assert res.chains == [[0, 1, 6]] and res.d == 1
        assert res.violations == [(2, 3)]
        assert all(P.less(x, y) for x, y in [(0, 1), (1, 6), (3, 4), (4, 5)])
        assert min_height_reducing_set(P) == [0, 3]

    @given(permutations_st(max_n=12), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_never_more_chains_than_a_height_reducing_set_has_elements(self, p, rng):
        # Menger: disjoint maximum chains each need their own element of the cut.
        for P in (poset_from_perm(p), random_dag(rng, rng.randint(1, 12))):
            h = decompose(P).h
            assert len(disjoint_chain_cover(P, 1, h).chains) <= len(min_height_reducing_set(P))

    def test_chains_match_the_list_construction(self):
        rng = random.Random(20261021)
        sigma = poset_from_perm(build_sigma_extremal(3, 1))
        fixtures = [
            disjoint_chains_poset([4, 4, 4]),
            sigma.delete(decompose(sigma).levels[0]),
            poset_from_relation(3, [(0, 2), (1, 2)]),
            poset_from_relation(7, [(0, 1), (0, 2), (1, 5), (1, 6), (2, 5), (3, 4), (4, 5)]),
            poset_from_perm(build_tau(3, 13)),
            *(random_dag(rng, rng.randint(1, 14)) for _ in range(40)),
        ]
        for P in fixtures:
            h = decompose(P).h
            for i in range(1, h + 1):
                for j in range(i, h + 1):
                    assert disjoint_chain_cover(P, i, j).chains == list_chain_cover(P, i, j)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValidationError):
            disjoint_chain_cover(chain_poset(3), 2, 1)
        with pytest.raises(ValidationError):
            disjoint_chain_cover(chain_poset(3), 1, 7)

    @given(permutations_st(max_n=12), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_chains_are_disjoint_and_climb_the_live_levels(self, p, rng):
        for P in (poset_from_perm(p), random_dag(rng, rng.randint(1, 12))):
            dec = decompose(P)
            for i in range(1, dec.h + 1):
                for j in range(i, dec.h + 1):
                    res = disjoint_chain_cover(P, i, j)
                    assert res.d == res.k - len(res.chains)
                    used = [x for chain in res.chains for x in chain]
                    assert len(used) == len(set(used))
                    for chain in res.chains:
                        assert len(chain) == j - i + 1
                        assert all(x in dec.a_prime[i - 1 + t] for t, x in enumerate(chain))
                        assert all(P.less(x, y) for x, y in zip(chain, chain[1:]))

    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=5))
    @settings(max_examples=20)
    def test_equal_level_cover_is_complete(self, k, h):
        res = disjoint_chain_cover(disjoint_chains_poset([h] * k), 1, h)
        assert res.d == 0 and len(res.chains) == k
        for chain in res.chains:
            assert len(chain) == h


class TestVerifyExampleStructure:
    @pytest.mark.parametrize("k", [3, 4])
    def test_first_variant_is_case_i(self, k):
        P = poset_from_perm(build_sigma_extremal(k, 1))
        report = verify_example_structure(P, k)
        assert report.case == "i" and report.passed

    @pytest.mark.parametrize("k", [3, 4])
    def test_second_variant_is_case_ii(self, k):
        P = poset_from_perm(build_sigma_extremal(k, 2))
        report = verify_example_structure(P, k)
        assert report.case == "ii" and report.passed

    def test_block_permutation_fails_first_clause(self):
        P = poset_from_perm(build_tau(3, 13))
        report = verify_example_structure(P, 3)
        assert not report.passed
        assert report.first_failure == "minimal-level-size"
        assert report.case is None

    def test_rejects_wrong_size(self):
        with pytest.raises(ValidationError):
            verify_example_structure(chain_poset(5), 3)

    def test_homogenous_split_clause_values(self):
        P = poset_from_perm(build_sigma_extremal(4, 2))
        assert count_chains_of_size(P, 5) == 7
        assert count_antichains_of_size(P, 5) == 2

    def test_case_two_order_clause_over_s7(self):
        # Every case-ii poset of S_7 at k = 2, by its path-chain-order outcome.
        outcomes = Counter()
        for values in permutations(range(1, 8)):
            report = verify_example_structure(poset_from_perm(Permutation(values)), 2)
            if report.case == "ii":
                clause = next(cl for cl in report.clauses if cl.name == "path-chain-order")
                outcomes[clause.ok, clause.detail] += 1
        assert outcomes == {
            (True, "a path element of A_1 lies below the chain's second element"): 24,
            (False, "2 maximum chains start at the stray element"): 20,
            (False, "0 maximum chains start at the stray element"): 16,
            (False, "no path element of A_1 lies below the chain's second element"): 12,
        }

    @pytest.mark.parametrize(
        "line, detail",
        [
            ("4 3 5 1 2 6 7", "a path element of A_1 lies below the chain's second element"),
            ("4 3 5 1 2 7 6", "2 maximum chains start at the stray element"),
            ("4 3 5 1 6 2 7", "0 maximum chains start at the stray element"),
            ("4 5 6 2 1 3 7", "no path element of A_1 lies below the chain's second element"),
        ],
    )
    def test_case_two_order_clause_without_a_witness(self, line, detail):
        P = poset_from_perm(Permutation(tuple(map(int, line.split()))))
        bare = poset_from_relation(P.n, P.relation_pairs())
        report = verify_example_structure(bare, 2)
        assert report == verify_example_structure(P, 2)
        assert report.case == "ii"
        assert [cl.detail for cl in report.clauses if cl.name == "path-chain-order"] == [detail]
