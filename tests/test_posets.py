import random
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoseq.counting import count_decreasing_exact, count_monotone
from monoseq.errors import BudgetExceededError, ValidationError
from monoseq.perms import Permutation, build_sigma_extremal, build_tau, identity
from monoseq import posets
from monoseq.posets import (
    Poset,
    antichain_poset,
    chain_poset,
    count_antichains_of_size,
    count_chains_of_size,
    count_chains_through,
    disjoint_chains_poset,
    dual,
    h_k,
    height,
    level_of_each,
    poset_from_json,
    poset_from_perm,
    poset_from_relation,
    reverse_order,
    surplus,
    width,
)
from monoseq.cuts import prune
from monoseq.decomposition import decompose, verify_example_structure

from conftest import list_matching, permutations_st, random_dag, random_permutation


def witness_free(P):
    """The same order without its witness, so queries read its bitmask rows."""
    return Poset(P.n, P.above, P.below)


class TestConstruction:
    def test_identity_gives_total_order(self):
        P = poset_from_perm(identity(4))
        assert all(P.less(i, j) for i in range(4) for j in range(i + 1, 4))

    def test_reversal_gives_antichain(self):
        P = poset_from_perm(Permutation((3, 2, 1)))
        assert not any(P.comparable(i, j) for i in range(3) for j in range(i + 1, 3))

    def test_sigma_poset_matches_hasse_figure(self):
        P = poset_from_perm(build_sigma_extremal(3, 1))
        vals = P.witness.values
        level_values = [sorted(vals[x] for x in lvl) for lvl in decompose(P).levels]
        assert level_values == [[1, 2, 6, 10], [3, 7, 11], [4, 8, 12], [5, 9, 13]]

    def test_closure_computed_from_cover_pairs(self):
        P = poset_from_relation(3, [(0, 1), (1, 2)])
        assert P.less(0, 2)

    def test_rejects_cycles(self):
        with pytest.raises(ValidationError):
            poset_from_relation(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValidationError):
            poset_from_relation(2, [(0, 1), (1, 0)])
        # 4 closes and 3 waits on the cycle 0 -> 1 -> 2 -> 0 above it.
        with pytest.raises(ValidationError, match="has a cycle"):
            poset_from_relation(5, [(3, 0), (0, 1), (1, 2), (2, 0), (3, 4)])

    def test_rejects_bad_witness(self):
        with pytest.raises(ValidationError, match="does not realize"):
            poset_from_json({"n": 3, "relation": [[1, 2]], "witness": [1, 2, 3]})

    def test_json_round_trip(self):
        P = poset_from_perm(build_tau(2, 5))
        Q = poset_from_json(P.to_json_dict())
        assert Q.above == P.above and Q.witness == P.witness

    @given(permutations_st(max_n=12))
    @settings(max_examples=50)
    def test_relation_rederivable_from_witness(self, p):
        P = poset_from_perm(p)
        relation = [[i + 1, j + 1] for i, j in P.relation_pairs()]
        Q = poset_from_json({"n": P.n, "relation": relation, "witness": list(p.values)})
        assert Q.above == P.above and Q.witness == p

    @given(permutations_st(max_n=12))
    @settings(max_examples=50)
    def test_closure_idempotent(self, p):
        P = poset_from_perm(p)
        again = poset_from_relation(P.n, P.cover_pairs())
        assert again.above == P.above

    def test_rows_are_the_closure_and_its_transpose(self):
        # Shuffled ids, with transitive and repeated pairs in the input.
        rng = random.Random(20261020)
        for _ in range(60):
            n = rng.randint(0, 40)
            label = list(range(n))
            rng.shuffle(label)
            density = rng.random() * 0.3
            pairs = [
                (label[i], label[j])
                for i, j in combinations(range(n), 2)
                if rng.random() < density
            ]
            pairs += [(a, c) for a, b in pairs for b2, c in pairs if b == b2][:n]
            pairs += rng.sample(pairs, len(pairs) // 3)
            P = poset_from_relation(n, pairs)
            succ = {i: {j for a, j in pairs if a == i} for i in range(n)}
            for i in range(n):
                reach, todo = set(), list(succ[i])
                while todo:
                    j = todo.pop()
                    if j not in reach:
                        reach.add(j)
                        todo.extend(succ[j])
                assert P.above[i] == sum(1 << j for j in reach)
                assert P.below[i] == sum(1 << j for j in range(n) if P.above[j] >> i & 1)


class TestInduced:
    @given(permutations_st(max_n=14), st.data())
    @settings(max_examples=80)
    def test_witnessed_subposet_matches_relation_closure(self, p, data):
        P = poset_from_perm(p)
        keep = data.draw(st.lists(st.integers(0, P.n - 1), unique=True))
        Q = P.induced(keep)
        pos = {e: idx for idx, e in enumerate(sorted(keep))}
        pairs = [(pos[i], pos[j]) for i, j in P.relation_pairs() if i in pos and j in pos]
        R = poset_from_relation(len(keep), pairs)
        assert (Q.n, Q.above, Q.below) == (R.n, R.above, R.below)
        if keep:
            assert poset_from_perm(Q.witness).above == R.above
        else:
            assert Q.witness is None

    def test_witnessed_subposets_build_no_relation_poset(self, monkeypatch):
        P = poset_from_perm(random_permutation(random.Random(40), 40))
        sigma = poset_from_perm(build_sigma_extremal(3, 1))

        def refuse(*args):
            raise AssertionError("a witnessed subposet was closed as a relation")

        monkeypatch.setattr(posets, "poset_from_relation", refuse)
        assert prune(P, 2, 3).rounds
        report = verify_example_structure(sigma, 3)
        assert report.case == "i" and report.passed


class TestDual:
    def test_chain_and_antichain_swap(self):
        assert height(dual(chain_poset(5))) == 1
        assert width(dual(chain_poset(5))) == 5

    def test_tau_dual_dimensions(self):
        D = dual(poset_from_perm(build_tau(3, 13)))
        assert height(D) == 3 and width(D) == 5

    def test_rejects_witness_free(self):
        P = poset_from_relation(3, [(0, 1)])
        with pytest.raises(ValidationError):
            dual(P)

    @given(permutations_st(max_n=12))
    @settings(max_examples=50)
    def test_involution_and_complementary_comparability(self, p):
        P = poset_from_perm(p)
        D = dual(P)
        assert dual(D).above == P.above
        for i in range(P.n):
            for j in range(i + 1, P.n):
                assert P.comparable(i, j) != D.comparable(i, j)


class TestReverseOrder:
    def test_chain_reverses_to_relabeled_chain(self):
        P = chain_poset(4)
        R = reverse_order(P)
        assert height(R) == 4
        assert all(R.less(j, i) == P.less(i, j) for i in range(4) for j in range(4))

    def test_antichain_fixed(self):
        P = antichain_poset(4)
        assert reverse_order(P).above == P.above

    @given(permutations_st(max_n=12))
    @settings(max_examples=40)
    def test_involution(self, p):
        P = poset_from_perm(p)
        assert reverse_order(reverse_order(P)).above == P.above

    @given(permutations_st(max_n=12))
    @settings(max_examples=40)
    def test_top_level_of_reverse_is_first_live_level(self, p):
        P = poset_from_perm(p)
        dec = decompose(P)
        rev_dec = decompose(reverse_order(P))
        assert sorted(rev_dec.levels[-1]) == sorted(dec.a_prime[0])


class TestHeightWidth:
    def test_tau_poset(self):
        P = poset_from_perm(build_tau(3, 13))
        assert (height(P), width(P)) == (5, 3)

    def test_chain(self):
        assert (height(chain_poset(6)), width(chain_poset(6))) == (6, 1)

    def test_sigma_poset(self):
        P = poset_from_perm(build_sigma_extremal(3, 1))
        assert (height(P), width(P)) == (4, 4)

    @given(permutations_st(max_n=14))
    @settings(max_examples=60)
    def test_matching_width_equals_dual_height(self, p):
        # With a witness, levels, height and width come from patience sorting
        # on it; the witness-free copy takes the sweep and the matching.
        P = poset_from_perm(p)
        assert width(P) == width(witness_free(P))
        assert level_of_each(P) == level_of_each(witness_free(P))
        assert height(P) == height(witness_free(P))

    def test_matching_width_is_largest_antichain(self):
        rng = random.Random(20240812)
        for _ in range(60):
            P = random_dag(rng, rng.randint(0, 12))
            sizes = [m for m in range(1, P.n + 1) if count_antichains_of_size(P, m) > 0]
            assert width(P) == max(sizes, default=0), P.relation_pairs()

    def test_width_leaves_recursion_limit(self, default_recursion_limit):
        width(witness_free(chain_poset(600)))
        assert sys.getrecursionlimit() == default_recursion_limit

    def test_bitmask_matching_equals_the_list_matcher(self):
        # Staircases: roots 0..L-1 take rights 0..L-1, and root L, adjacent
        # to right 0 only, augments along a path through every one of them.
        graphs = [{u: 0b11 << u for u in range(L)} | {L: 1} for L in (1, 5, 60)]
        rng = random.Random(20261021)
        for _ in range(300):
            # Left ids with gaps, some empty rows, and right ids no row uses.
            lefts = rng.sample(range(60), rng.randint(0, 30))
            rights = rng.sample(range(60), rng.randint(1, 30))
            density = rng.random()
            graphs.append(
                {
                    u: 0 if rng.random() < 0.2 else
                    sum(1 << v for v in rights if rng.random() < density)
                    for u in lefts
                }
            )
        for rows in graphs:
            adjacency = {u: list(posets.iter_bits(mask)) for u, mask in rows.items()}
            assert posets.max_bipartite_matching_pairs(rows) == list_matching(adjacency)
        assert len(posets.max_bipartite_matching_pairs(graphs[2])) == 61

    def test_witness_free_queries_hold_no_per_pair_lists(self):
        # A 500-chain has 124,750 comparable pairs.  Width and the chain
        # counts read its rows; per-pair lists had them peak at 4.11, 2.07
        # and 4.08 MB under tracemalloc, the sweep and matching at 0.1 MB.
        n = 500
        queries = [
            (width, 1),
            (lambda P: count_chains_of_size(P, 4), 2_573_031_125),  # C(500, 4)
            (lambda P: count_chains_through(P, 4, n // 2), 20_584_249),  # C(499, 3)
        ]
        for query, expected in queries:
            P = witness_free(chain_poset(n))
            tracemalloc.start()
            try:
                assert query(P) == expected
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    def test_witness_free_levels_are_longest_chains(self):
        # Random DAGs on shuffled ids, each holding the standard example S_3
        # (a_i < b_j exactly when i != j), so none has dimension 2, against
        # the longest path ending at each element of the generating DAG.
        rng = random.Random(20261022)
        for _ in range(40):
            n = rng.randint(6, 80)
            lower = rng.randint(0, n - 6)
            a, b = range(lower, lower + 3), range(lower + 3, lower + 6)
            density = rng.random() / 4

            def related(x, y):  # x < y
                if lower <= x and y < lower + 6:
                    return x in a and y in b and y - x != 3
                return rng.random() < density

            edges = [(x, y) for x, y in combinations(range(n), 2) if related(x, y)]
            ids = rng.sample(range(n), n)
            pairs = [(ids[x], ids[y]) for x, y in edges]
            preds = [[] for _ in range(n)]
            for x, y in pairs:
                preds[y].append(x)
            longest = [0] * n
            for y in ids:  # a linear extension of the generating DAG
                longest[y] = 1 + max((longest[x] for x in preds[y]), default=0)
            P = poset_from_relation(n, pairs)
            assert all(
                P.less(ids[x], ids[y]) == (y - x != 3) for x in a for y in b
            ), edges
            assert level_of_each(P) == longest, edges
        n = 3_000
        ids = [1_009 * t % n for t in range(n)]
        P = poset_from_relation(n, [(ids[t], ids[t + 1]) for t in range(n - 1)])
        assert [level_of_each(P)[x] for x in ids] == list(range(1, n + 1))

    def test_witness_levels_at_the_ends(self):
        for P in (poset_from_perm(random_permutation(random.Random(300), 300)), chain_poset(1)):
            assert level_of_each(P) == level_of_each(witness_free(P))
            assert (height(P), width(P)) == (height(witness_free(P)), width(witness_free(P)))

    def test_witness_queries_build_no_other_poset(self, monkeypatch):
        P = poset_from_perm(build_sigma_extremal(4, 2))

        def refuse(p):
            raise AssertionError("a query built a second poset")

        monkeypatch.setattr("monoseq.posets.poset_from_perm", refuse)
        assert (height(P), width(P)) == (5, 5)
        assert max(level_of_each(P)) == 5
        assert decompose(P).h == 5

    @given(permutations_st(max_n=14))
    @settings(max_examples=40)
    def test_mirsky_bound(self, p):
        P = poset_from_perm(p)
        assert height(P) * width(P) >= P.n


class TestChainCounting:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda P: count_chains_of_size(P, 0), "chain size must be >= 1"),
            (lambda P: count_chains_through(P, 0, 0), "chain size must be >= 1"),
            (lambda P: count_chains_through(P, 2, 3), "anchor out of range"),
            (lambda P: count_chains_through(P, 2, -1), "anchor out of range"),
            (lambda P: count_antichains_of_size(P, 0), "antichain size must be >= 1"),
            (lambda P: disjoint_chains_poset([]), "chain lengths must be positive"),
        ],
        ids=[
            "chains-size-0",
            "chains-through-size-0",
            "chains-through-anchor-n",
            "chains-through-anchor-negative",
            "antichains-size-0",
            "disjoint-chains-none",
        ],
    )
    def test_rejects_bad_arguments(self, call, message):
        with pytest.raises(ValidationError, match=message):
            call(chain_poset(3))

    def test_tau_chain_count(self):
        assert count_chains_of_size(poset_from_perm(build_tau(3, 13)), 4) == 7

    def test_antichain_has_no_pairs(self):
        assert count_chains_of_size(antichain_poset(5), 2) == 0

    def test_total_order_counts_subsets(self):
        assert count_chains_of_size(chain_poset(6), 3) == 20

    @given(permutations_st(max_n=14), st.integers(min_value=2, max_value=5))
    @settings(max_examples=60)
    def test_matches_increasing_subsequences(self, p, m):
        # Chains of the permutation poset are exactly increasing subsequences.
        P = poset_from_perm(p)
        expected = count_monotone(p, m - 1).increasing
        assert count_chains_of_size(P, m) == expected
        assert count_chains_of_size(witness_free(P), m) == expected

    @given(permutations_st(max_n=10), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40)
    def test_anchored_counts_sum_correctly(self, p, m):
        # Each m-chain contains exactly m elements, so anchored counts sum to m * total.
        P = poset_from_perm(p)
        total = count_chains_of_size(P, m)
        anchored = sum(count_chains_through(P, m, x) for x in range(P.n))
        assert anchored == m * total


def _backtracking_antichains(P, m):
    """(count, nodes): m-antichains by backtracking down to the last member.

    The witness-free count without its closed-form last three members: each
    entry (candidates, members left) spends one node per child, choosing its
    highest candidates in turn, and the last member is a popcount.
    """
    if m == 1:
        return P.n, 0
    lower = [((1 << i) - 1) & ~(P.above[i] | P.below[i]) for i in range(P.n)]
    nodes = total = 0
    stack = [((1 << P.n) - 1, m)]
    while stack:
        cand, left = stack.pop()
        c = cand.bit_count() - left + 1
        if c <= 0:
            continue
        nodes += c
        for _ in range(c):
            i = cand.bit_length() - 1
            cand ^= 1 << i
            if left == 2:
                total += (lower[i] & cand).bit_count()
            else:
                stack.append((lower[i] & cand, left - 1))
    return total, nodes


def _shuffled_ids(rng, P):
    """The same order, witness-free, on randomly relabelled ids, so ids are no linear extension."""
    label = list(range(P.n))
    rng.shuffle(label)
    return poset_from_relation(P.n, [(label[i], label[j]) for i, j in P.relation_pairs()])


class TestAntichainCounting:
    def test_sigma_variants(self):
        P1 = poset_from_perm(build_sigma_extremal(3, 1))
        P2 = poset_from_perm(build_sigma_extremal(3, 2))
        assert count_antichains_of_size(P1, 4) == 1
        assert count_antichains_of_size(P2, 4) == 2

    def test_chain_has_no_antichain_pairs(self):
        assert count_antichains_of_size(chain_poset(5), 2) == 0

    def test_witness_free_enumeration_agrees(self):
        P = poset_from_perm(build_tau(2, 6))
        stripped = poset_from_relation(P.n, P.relation_pairs())
        for m in range(1, 5):
            assert count_antichains_of_size(stripped, m) == count_antichains_of_size(P, m)

    def test_witness_free_matches_subset_oracle(self):
        # Random DAGs without a witness, so not necessarily of dimension 2,
        # counted against every m-subset checked pair by pair.
        rng = random.Random(20240811)
        for _ in range(40):
            P = random_dag(rng, rng.randint(0, 10))
            n = P.n
            for m in range(1, n + 2):
                expected = sum(
                    1
                    for s in combinations(range(n), m)
                    if not any(P.comparable(a, b) for a, b in combinations(s, 2))
                )
                assert count_antichains_of_size(P, m) == expected, (P.relation_pairs(), m)

    def test_witness_free_budget_error(self, monkeypatch):
        stripped = poset_from_relation(12, [])
        monkeypatch.setattr(posets, "ANTICHAIN_NODE_BUDGET", 5)
        with pytest.raises(BudgetExceededError):
            count_antichains_of_size(stripped, 6)

    @pytest.mark.parametrize(
        "n, pairs, m, count, nodes",
        [
            (12, [], 6, 924, 791),
            (12, [(0, 5), (1, 5), (2, 6), (3, 7), (6, 9), (4, 10)], 4, 224, 152),
        ],
    )
    def test_witness_free_node_budget_is_pinned(self, monkeypatch, n, pairs, m, count, nodes):
        # Each count takes exactly `nodes` budget nodes: that budget passes
        # and one node fewer raises.
        P = poset_from_relation(n, pairs)
        monkeypatch.setattr(posets, "ANTICHAIN_NODE_BUDGET", nodes)
        assert count_antichains_of_size(P, m) == count
        monkeypatch.setattr(posets, "ANTICHAIN_NODE_BUDGET", nodes - 1)
        with pytest.raises(BudgetExceededError):
            count_antichains_of_size(P, m)

    def test_closed_form_matches_backtracking_counts_and_nodes(self, monkeypatch):
        # Every m = 1..n+1, so entries with three members left occur at the
        # root (m = 3) and below it (m >= 4, up to m = 15).  Each count takes
        # the backtracking's exact node total: that budget passes and one
        # node fewer raises.
        rng = random.Random(20261020)
        orders = [poset_from_relation(0, []), chain_poset(9), antichain_poset(9)]
        orders += [random_dag(rng, rng.randint(1, 14)) for _ in range(40)]
        for P in orders:
            P = _shuffled_ids(rng, P)
            for m in range(1, P.n + 2):
                count, nodes = _backtracking_antichains(P, m)
                monkeypatch.setattr(posets, "ANTICHAIN_NODE_BUDGET", nodes)
                assert count_antichains_of_size(P, m) == count, (P.relation_pairs(), m)
                if nodes:
                    monkeypatch.setattr(posets, "ANTICHAIN_NODE_BUDGET", nodes - 1)
                    with pytest.raises(BudgetExceededError):
                        count_antichains_of_size(P, m)

    def test_witness_free_matches_decreasing_counts_at_scale(self):
        # The antichains of a permutation's poset are its decreasing
        # subsequences; the stripped copy counts them by backtracking.
        rng = random.Random(20261019)
        for n in range(30, 61):
            p = random_permutation(rng, n)
            stripped = poset_from_relation(n, poset_from_perm(p).relation_pairs())
            for m in range(2, 7):
                assert count_antichains_of_size(stripped, m) == count_decreasing_exact(p, m)


class TestHomogenousCount:
    def test_sigma_value(self):
        assert h_k(poset_from_perm(build_sigma_extremal(3, 1)), 3) == 7

    def test_antichain_of_k(self):
        assert h_k(antichain_poset(3), 3) == 0

    @given(permutations_st(max_n=16), st.integers(min_value=1, max_value=4))
    @settings(max_examples=80)
    def test_correspondence_with_monotone_counts(self, p, k):
        P = poset_from_perm(p)
        report = count_monotone(p, k)
        assert count_chains_of_size(P, k + 1) == report.increasing
        assert count_antichains_of_size(P, k + 1) == report.decreasing
        assert h_k(P, k) == report.total
        # The predecessor DP and the antichain backtracking, independent of
        # the counting kernel.
        assert count_chains_of_size(witness_free(P), k + 1) == report.increasing
        assert count_antichains_of_size(witness_free(P), k + 1) == report.decreasing
        assert count_chains_of_size(witness_free(dual(P)), k + 1) == report.decreasing


class TestSurplus:
    def test_tau_value(self):
        assert surplus(poset_from_perm(build_tau(3, 13)), 3) == -2

    def test_antichain(self):
        assert surplus(antichain_poset(6), 3) == 3

    def test_chain(self):
        assert surplus(chain_poset(5), 2) == 5 - 10

    @given(permutations_st(max_n=14), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40)
    def test_equals_level_sum(self, p, k):
        P = poset_from_perm(p)
        dec = decompose(P)
        assert surplus(P, k) == sum(len(lvl) - k for lvl in dec.levels)
