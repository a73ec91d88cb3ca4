import random
from contextlib import contextmanager
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from math import comb, exp, isqrt, log2
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoseq import numeric
from monoseq.errors import ValidationError
from monoseq.lemmas import (
    FunctionTable,
    LabeledTree,
    SetFamily,
    count_connected_subsets,
    distinguishing_sets,
    lower_shadow,
    signature_bound_check,
    surplus_conclusion_check,
)
from monoseq.numeric import (
    _scaled_log2_bounds,
    ceil_pow2_of_sqrt_minus_one,
    exp_lower,
    exp_neg_upper,
    log2_lower,
    log2_upper,
    sqrt_upper,
)
from monoseq.posets import antichain_poset, chain_poset, disjoint_chains_poset, poset_from_perm

from conftest import permutations_st


def path_tree(t):
    return LabeledTree(t, frozenset((i, i + 1) for i in range(t - 1)))


def star_tree(t):
    return LabeledTree(t, frozenset((0, i) for i in range(1, t)))


class TestNumericBounds:
    @pytest.mark.parametrize("x", [0, 1, 2, 3, 10, 97, 1024])
    def test_sqrt_brackets(self, x):
        # An upper bound on sqrt(x), and within 2^-40 of it.
        r = sqrt_upper(x)
        below = r - Fraction(1, 2**40)
        assert x <= r * r
        assert below < 0 or below * below < x

    @pytest.mark.parametrize("x", [1, 2, 3, 7, 64, 1000])
    def test_log2_brackets(self, x):
        assert float(log2_lower(x)) <= log2(x) <= float(log2_upper(x))

    @pytest.mark.parametrize("num,den", [(0, 1), (1, 2), (3, 4), (2, 1), (7, 3)])
    def test_exp_bounds(self, num, den):
        x = Fraction(num, den)
        assert float(exp_lower(x)) <= exp(float(x)) + 1e-12
        assert float(exp_neg_upper(x)) >= exp(-float(x)) - 1e-12

    @pytest.mark.parametrize("bits", [1, 2, 5, 8])
    def test_scaled_log2_bounds(self, bits):
        # lo <= log2(m) * 2**bits <= hi  <=>  2**lo <= m**(2**bits) <= 2**hi
        for m in list(range(1, 70)) + [2**20 - 1, 2**20, 3**13, 10**6 + 3]:
            lo, hi = _scaled_log2_bounds(m, bits)
            power = m ** (2**bits)
            assert 2**lo <= power <= 2**hi and hi - lo <= 2, (m, lo, hi)

    def test_threshold_ceiling(self):
        for t in range(1, 1001):
            assert ceil_pow2_of_sqrt_minus_one(t) == _ceiling_reference(t), t

    def test_threshold_ceiling_from_a_floor_estimate(self, monkeypatch):
        # A floor estimate falls one short off the squares, down to 2**(s-1)
        # just past one, so the clamp and the upward steps reach the ceiling.
        monkeypatch.setattr(numeric, "ROUND_CEILING", ROUND_FLOOR)
        for t in range(1, 301):
            assert ceil_pow2_of_sqrt_minus_one(t) == _ceiling_reference(t), t

    def test_threshold_ceiling_from_a_coarse_estimate(self, monkeypatch):
        # At 3 digits the estimate lands off the ceiling on both sides, and
        # the unit steps walk it back down or up.
        @contextmanager
        def coarse():
            with localcontext() as ctx:
                ctx.prec = 3
                yield SimpleNamespace()  # the precision set on it goes nowhere

        monkeypatch.setattr(numeric, "localcontext", coarse)
        for t in range(1, 301):
            assert ceil_pow2_of_sqrt_minus_one(t) == _ceiling_reference(t), t


def _ceiling_reference(t: int) -> int:
    """ceil(2 ** (sqrt(t) - 1)) from an 80-digit decimal; 2 ** (sqrt(t) - 1)
    is an integer only at square t, and elsewhere stays far from one at this
    precision."""
    s = isqrt(t)
    if s * s == t:
        return 2 ** (s - 1)
    with localcontext() as ctx:
        ctx.prec = 80
        power = ((Decimal(t).sqrt() - 1) * Decimal(2).ln()).exp()
        return int(power.to_integral_value(rounding=ROUND_CEILING))


class TestLowerShadow:
    def test_all_pairs_of_four(self):
        family = SetFamily.from_lists(4, combinations(range(4), 2))
        shadow = lower_shadow(family, 1)
        assert len(shadow.members) == 4
        assert len(shadow.members) >= min(6 // 2, 2)

    def test_two_disjoint_pairs(self):
        family = SetFamily.from_lists(4, [[0, 1], [2, 3]])
        assert len(lower_shadow(family, 1).members) == 4

    def test_b_equal_a_returns_family(self):
        family = SetFamily.from_lists(5, [[0, 1, 2], [1, 2, 4]])
        assert lower_shadow(family, 3).members == family.members

    def test_rejects_out_of_range_b(self):
        family = SetFamily.from_lists(4, [[0, 1]])
        with pytest.raises(ValidationError):
            lower_shadow(family, 3)
        with pytest.raises(ValidationError):
            lower_shadow(family, 0)

    def test_rejects_mixed_cardinalities(self):
        with pytest.raises(ValidationError):
            SetFamily.from_lists(4, [[0, 1], [2]])

    def test_exhaustive_small_grounds(self):
        # Every family over small parameter combinations; the halving bound
        # is asserted inside lower_shadow.
        cases = 0
        for g in range(1, 6):
            for a in range(1, g + 1):
                blocks = list(combinations(range(g), a))
                if 2 ** len(blocks) > 4096:
                    continue
                for picks in range(1, 2 ** len(blocks)):
                    members = [blocks[i] for i in range(len(blocks)) if picks >> i & 1]
                    family = SetFamily.from_lists(g, members)
                    for b in range(1, a + 1):
                        lower_shadow(family, b)
                        cases += 1
        assert cases > 1000

    def test_random_families_over_larger_grounds(self):
        rng = random.Random(7)
        for _ in range(10_000):
            g = rng.randint(2, 7)
            a = rng.randint(1, g)
            pool = list(combinations(range(g), a))
            members = rng.sample(pool, rng.randint(1, len(pool)))
            b = rng.randint(1, a)
            lower_shadow(SetFamily.from_lists(g, members), b)


class TestDistinguishingSets:
    def test_single_function_gets_empty_set(self):
        table = FunctionTable(domain=("x",), rows=((0,),))
        assert distinguishing_sets(table) == [frozenset()]

    def test_two_constants_tie_break(self):
        table = FunctionTable(domain=("a",), rows=((0,), (1,)))
        assert distinguishing_sets(table) == [frozenset(), frozenset({"a"})]

    def test_all_boolean_functions_on_two_points(self):
        table = FunctionTable(
            domain=("a", "b"), rows=((0, 0), (0, 1), (1, 0), (1, 1))
        )
        sets = distinguishing_sets(table)
        assert all(len(s) <= 2 for s in sets)

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            FunctionTable(domain=("a",), rows=((0,), (0,)))

    def test_exhaustive_small_tables(self):
        # All tables over two values on up to three points, any number of
        # rows; postconditions are asserted inside distinguishing_sets.
        cases = 0
        for dom_size in (1, 2, 3):
            domain = tuple(range(dom_size))
            all_rows = [
                tuple((code >> i) & 1 for i in range(dom_size))
                for code in range(2**dom_size)
            ]
            for picks in range(1, 2 ** len(all_rows)):
                rows = tuple(all_rows[i] for i in range(len(all_rows)) if picks >> i & 1)
                distinguishing_sets(FunctionTable(domain=domain, rows=rows))
                cases += 1
        assert cases == 3 + 15 + 255

    def test_staircase_nests_past_the_recursion_limit(self, default_recursion_limit):
        # Rows e_1 .. e_1100 and 0: each split peels off one row, so the
        # splits nest 1,100 deep.
        n = 1100
        rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n)) + ((0,) * n,)
        sets = distinguishing_sets(FunctionTable(domain=tuple(range(n)), rows=rows))
        assert sets == [frozenset({i}) for i in range(n)] + [frozenset()]

    def test_random_larger_tables(self):
        rng = random.Random(11)
        for _ in range(300):
            dom_size = rng.randint(1, 5)
            y_size = rng.randint(2, 4)
            domain = tuple(range(dom_size))
            pool = set()
            for _ in range(rng.randint(2, 12)):
                pool.add(tuple(rng.randrange(y_size) for _ in range(dom_size)))
            distinguishing_sets(FunctionTable(domain=domain, rows=tuple(sorted(pool))))


class TestConnectedSubsets:
    def test_paths_are_tight(self):
        assert count_connected_subsets(path_tree(5), 3) == 3

    def test_star(self):
        assert count_connected_subsets(star_tree(4), 3) == 3

    def test_singletons(self):
        assert count_connected_subsets(path_tree(7), 1) == 7

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            count_connected_subsets(path_tree(4), 5)
        with pytest.raises(ValidationError):
            count_connected_subsets(path_tree(4), 0)

    def test_rejects_non_trees(self):
        with pytest.raises(ValidationError):
            LabeledTree(3, frozenset([(0, 1)]))
        with pytest.raises(ValidationError):
            LabeledTree(3, frozenset([(0, 1), (1, 2), (0, 2)]))

    @staticmethod
    def brute(tree, c):
        total = 0
        adj = {v: set() for v in range(tree.t)}
        for a, b in tree.edges:
            adj[a].add(b)
            adj[b].add(a)
        for sub in combinations(range(tree.t), c):
            live = set(sub)
            stack, seen = [sub[0]], {sub[0]}
            while stack:
                x = stack.pop()
                for y in adj[x] & live - seen:
                    seen.add(y)
                    stack.append(y)
            total += len(seen) == c
        return total

    def test_matches_brute_force_on_random_trees(self):
        rng = random.Random(3)
        for _ in range(60):
            t = rng.randint(1, 9)
            edges = frozenset((rng.randrange(i), i) for i in range(1, t))
            tree = LabeledTree(t, edges)
            for c in range(1, t + 1):
                assert count_connected_subsets(tree, c) == self.brute(tree, c)

    def test_floor_on_large_random_trees(self):
        rng = random.Random(5)
        for _ in range(20):
            t = rng.randint(50, 200)
            edges = frozenset((rng.randrange(i), i) for i in range(1, t))
            tree = LabeledTree(t, edges)
            for c in (1, 2, t // 2, t - 1, t):
                assert count_connected_subsets(tree, c) >= t - c + 1


class TestSignatureBound:
    def test_disjoint_chains_tight_case(self):
        P = disjoint_chains_poset([25] * 24)
        report = signature_bound_check(P, 24, 1)
        assert report.preconditions_hold
        assert report.max_chain_count == 24
        assert report.bound == 24 and report.chain_count == 24
        assert report.satisfied

    def test_single_chain(self):
        report = signature_bound_check(chain_poset(10), 8, 2)
        assert report.preconditions_hold and report.satisfied
        assert report.chain_count == comb(10, 9)

    def test_anchored_at_top_of_chain(self):
        report = signature_bound_check(chain_poset(10), 8, 2, anchor=9)
        assert report.preconditions_hold and report.satisfied
        assert report.chain_count == comb(9, 8)

    def test_precondition_report(self):
        report = signature_bound_check(disjoint_chains_poset([3, 3]), 2, 1)
        assert not report.preconditions_hold
        assert report.satisfied is None

    def test_rejects_wrong_height(self):
        with pytest.raises(ValidationError):
            signature_bound_check(chain_poset(5), 2, 1)

    @given(permutations_st(min_n=5, max_n=12))
    @settings(max_examples=100, deadline=None)
    def test_holds_whenever_preconditions_do(self, p):
        P = poset_from_perm(p)
        from monoseq.posets import height

        h = height(P)
        for k in range(4, h):
            report = signature_bound_check(P, k, h - k)
            if report.preconditions_hold:
                assert report.satisfied, (p.values, k)


class TestSurplusConclusion:
    def test_antichain_comparison_without_verdict(self):
        report = surplus_conclusion_check(antichain_poset(9), 6, 1)
        assert report.homogenous_count == comb(9, 7)
        assert report.conclusion_holds
        assert report.verdict is None  # height >= width fails on an antichain
        assert not report.preconditions["height_at_least_width"]

    def test_precondition_report_on_chain(self):
        report = surplus_conclusion_check(chain_poset(4), 2, 1)
        assert not report.preconditions_hold and report.verdict is None

    @given(permutations_st(min_n=4, max_n=20), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_harness_records_outcomes(self, p, t):
        # Asymptotic conclusion: record pass/fail, never crash.
        P = poset_from_perm(p)
        for k in (2 * t, 3 * t):
            report = surplus_conclusion_check(P, k, t)
            assert report.verdict in (None, True, False)
            assert report.threshold >= 1
