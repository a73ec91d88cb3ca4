import random
from itertools import combinations
from itertools import permutations as iter_permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoseq import counting
from monoseq.counting import (
    brute_force_count,
    count_decreasing_exact,
    count_increasing_exact,
    count_monotone,
    length_profile,
    swap_price,
)
from monoseq.errors import BudgetExceededError, ValidationError
from monoseq.perms import Permutation, build_sigma_extremal, build_tau, identity

from conftest import permutations_st


class TestCountIncreasingExact:
    def test_identity_counts_subsets(self):
        assert count_increasing_exact(identity(6), 3) == 20

    def test_strictly_decreasing(self):
        assert count_increasing_exact(Permutation((3, 2, 1)), 2) == 0

    def test_tau_value(self):
        assert count_increasing_exact(build_tau(3, 13), 4) == 7

    def test_length_beyond_n(self):
        assert count_increasing_exact(identity(3), 4) == 0

    def test_length_one(self):
        assert count_increasing_exact(Permutation((2, 1, 3)), 1) == 3

    def test_rejects_bad_length(self):
        with pytest.raises(ValidationError):
            count_increasing_exact(identity(3), 0)
        with pytest.raises(ValidationError):
            count_decreasing_exact(identity(3), 0)


class TestCountMonotone:
    def test_sigma_signature(self):
        report = count_monotone(build_sigma_extremal(3, 1), 3)
        assert (report.increasing, report.decreasing) == (6, 1)

    def test_identity(self):
        report = count_monotone(identity(5), 2)
        assert (report.increasing, report.decreasing, report.total) == (10, 0, 10)

    def test_two_block_example(self):
        # (3,4,5) is the only monotone triple here.
        report = count_monotone(Permutation((3, 4, 5, 1, 2)), 2)
        assert (report.increasing, report.decreasing) == (1, 0)


class TestBruteForce:
    @pytest.mark.parametrize(
        "p,k,expected",
        [
            (build_sigma_extremal(3, 1), 3, (6, 1)),
            (identity(5), 2, (10, 0)),
            (Permutation((3, 4, 5, 1, 2)), 2, (1, 0)),
        ],
    )
    def test_matches_count_monotone_examples(self, p, k, expected):
        report = brute_force_count(p, k)
        assert (report.increasing, report.decreasing) == expected

    def test_every_pair_is_monotone(self):
        report = brute_force_count(Permutation((2, 1, 4, 3)), 1)
        assert (report.increasing, report.decreasing) == (4, 2)
        assert report.total == comb(4, 2)

    def test_square_length_can_reach_zero(self):
        for k in (2, 3):
            assert brute_force_count(build_tau(k, k * k), k).total == 0

    def test_budget_error_reports_size(self, monkeypatch):
        monkeypatch.setattr(counting, "SUBSET_BUDGET", 10)
        with pytest.raises(BudgetExceededError) as info:
            brute_force_count(identity(10), 2)
        assert info.value.needed == comb(10, 3)


class TestLengthProfile:
    def test_identity_profile(self):
        profile = length_profile(identity(4), 4).per_length
        assert profile == {2: (6, 0), 3: (4, 0), 4: (1, 0)}
        # Lengths past n count nothing.
        assert length_profile(identity(3), 5).per_length == {
            2: (3, 0),
            3: (1, 0),
            4: (0, 0),
            5: (0, 0),
        }
        assert length_profile(identity(1), 3).per_length == {2: (0, 0), 3: (0, 0)}

    def test_small_mixed_profile(self):
        # No triple of (2,1,4,3) is monotone; only the pair level is populated.
        profile = length_profile(Permutation((2, 1, 4, 3)), 3).per_length
        assert profile == {2: (4, 2), 3: (0, 0)}

    def test_rejects_small_lmax(self):
        with pytest.raises(ValidationError):
            length_profile(identity(3), 1)

    def test_zeros_past_the_longest_run(self):
        # Four falling pairs: no decreasing triple, and an increasing
        # L-subsequence takes one value from each of L pairs.
        profile = length_profile(Permutation((2, 1, 4, 3, 6, 5, 8, 7)), 6).per_length
        assert profile == {
            2: (comb(4, 2) * 4, 4),
            3: (comb(4, 3) * 8, 0),
            4: (16, 0),
            5: (0, 0),
            6: (0, 0),
        }

    @given(permutations_st(min_n=2, max_n=20))
    def test_pairs_partition_into_inversions(self, p):
        inc, dec = length_profile(p, 2).per_length[2]
        inversions = sum(
            1
            for i in range(p.n)
            for j in range(i + 1, p.n)
            if p.values[i] > p.values[j]
        )
        assert dec == inversions
        assert inc + dec == comb(p.n, 2)

    @given(permutations_st(min_n=2, max_n=12), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30)
    def test_profile_agrees_with_single_length_counts(self, p, k):
        profile = length_profile(p, k + 1).per_length
        report = count_monotone(p, k)
        assert profile[k + 1] == (report.increasing, report.decreasing)


def _one_layer_kernel(values, top):
    """The kernel as it was before packing: one tree pass per layer."""
    size = max(values, default=0)
    prev = [1] * len(values)
    totals = [1, len(values)]
    while len(totals) <= top and totals[-1]:
        tree = [0] * (size + 1)
        cur = []
        for v, f in zip(values, prev):
            i, below = v - 1, 0
            while i:
                below += tree[i]
                i &= i - 1
            cur.append(below)
            while v <= size:
                tree[v] += f
                v += v & -v
        totals.append(sum(cur))
        prev = cur
    return (totals + [0] * top)[: top + 1]


class TestChainKernel:
    @given(
        st.lists(st.integers(min_value=1, max_value=30), unique=True, max_size=11),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_value_list_against_subsets(self, values, top):
        # A list of distinct values that is not a permutation of 1..len.
        expected = [
            sum(1 for sub in combinations(values, L) if list(sub) == sorted(sub))
            for L in range(top + 1)
        ]
        assert counting._chain_totals(values, top) == expected

    # 1 and 8 bits force one layer per pass, 64 several passes of several
    # layers, 1024 (the default) a single pass for most of these lists.
    @pytest.mark.parametrize("bits", [1, 8, 64, 1024])
    def test_packed_passes_match_one_layer_passes(self, bits, monkeypatch):
        monkeypatch.setattr(counting, "PACKED_BITS", bits)
        rng = random.Random(bits)
        for _ in range(60):
            n = rng.randrange(0, 40)
            values = rng.sample(range(1, 3 * n + 2), n)
            for top in range(n + 2):
                assert counting._chain_totals(values, top) == _one_layer_kernel(values, top), (
                    values,
                    top,
                )

    @pytest.mark.parametrize("bits", [64, 1024])
    def test_identity_at_the_width_bound(self, bits, monkeypatch):
        # At top = n // 2 the largest count is C(n, n // 2) itself, the
        # number the slot width is taken from.
        monkeypatch.setattr(counting, "PACKED_BITS", bits)
        for n in range(61):
            top = n // 2
            expected = [comb(n, L) for L in range(top + 1)]
            assert counting._chain_totals(list(range(1, n + 1)), top) == expected, n

    @pytest.mark.parametrize("bits", [1, 1024])
    def test_reversed_identity(self, bits, monkeypatch):
        # Layer 2 is all zero, so every position is dead after the first
        # pass and the layers past it are zeros.
        monkeypatch.setattr(counting, "PACKED_BITS", bits)
        for n in range(30):
            for top in range(n + 2):
                expected = ([1, n] + [0] * top)[: top + 1]
                assert counting._chain_totals(list(range(n, 0, -1)), top) == expected


def _kernel_pair(values, top):
    return [counting._chain_totals(values, top), counting._chain_totals(values[::-1], top)]


class TestShortTotals:
    def test_every_small_permutation_matches_the_kernel(self):
        for n in range(8):
            for vals in iter_permutations(range(1, n + 1)):
                inc, dec = counting._short_totals(vals)
                for top in range(4):
                    assert [inc[: top + 1], dec[: top + 1]] == _kernel_pair(vals, top), (vals, top)

    def test_long_words_match_the_kernel(self):
        n = 2000
        shuffled = list(range(1, n + 1))
        random.Random(7).shuffle(shuffled)
        for vals in (tuple(shuffled), tuple(range(1, n + 1)), tuple(range(n, 0, -1))):
            assert list(counting._short_totals(vals)) == _kernel_pair(vals, 3)

    def test_monotone_words_at_scale(self):
        n = 10**5
        up = count_monotone(identity(n), 2)
        down = count_monotone(identity(n).reverse(), 2)
        assert (up.increasing, up.decreasing) == (comb(n, 3), 0)
        assert (down.increasing, down.decreasing) == (0, comb(n, 3))

    def test_no_triples_below_three(self):
        for vals in ((1,), (1, 2), (2, 1)):
            report = count_monotone(Permutation(vals), 2)
            assert (report.increasing, report.decreasing) == (0, 0)
            assert length_profile(Permutation(vals), 3).per_length[3] == (0, 0)

    def test_only_lengths_past_three_reach_the_packed_kernel(self, monkeypatch):
        calls = []
        kernel = counting._chain_totals

        def counted(values, top):
            calls.append(top)
            return kernel(values, top)

        monkeypatch.setattr(counting, "_chain_totals", counted)
        p = build_tau(2, 7)
        count_monotone(p, 1)
        count_monotone(p, 2)
        length_profile(p, 3)
        assert calls == []
        count_monotone(p, 3)
        length_profile(p, 4)
        assert calls == [4, 4, 4, 4]


class TestSwapPrice:
    @given(permutations_st(min_n=2, max_n=14), st.integers(min_value=1, max_value=5))
    @settings(max_examples=120, deadline=None)
    def test_swap_price_is_the_change_in_count(self, p, k):
        word = list(p.values)
        before = count_monotone(p, k).total
        for i in range(p.n - 1):
            swapped = word[:]
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            after = count_monotone(Permutation(tuple(swapped)), k).total
            assert swap_price(word, i, k) == after - before, (word, i, k)

    def test_chains_longer_than_the_word_skip_the_kernel(self, monkeypatch):
        def kernel(values, top):
            raise AssertionError(f"kernel asked for {top} layers of {len(values)} values")

        monkeypatch.setattr(counting, "_chain_totals", kernel)
        for k in (3, 10**9):
            assert swap_price([2, 1, 3], 0, k) == 0


class TestOracleEquivalence:
    def test_exhaustive_small(self):
        for n in range(1, 7):
            for vals in iter_permutations(range(1, n + 1)):
                p = Permutation(vals)
                for k in (1, 2, 3):
                    fast = count_monotone(p, k)
                    slow = brute_force_count(p, k)
                    assert (fast.increasing, fast.decreasing) == (
                        slow.increasing,
                        slow.decreasing,
                    ), (vals, k)

    @given(permutations_st(min_n=2, max_n=40), st.integers(min_value=1, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_random_instances(self, p, k):
        if comb(p.n, k + 1) > 2000:
            k = 1
        fast = count_monotone(p, k)
        slow = brute_force_count(p, k)
        assert (fast.increasing, fast.decreasing) == (slow.increasing, slow.decreasing)
        assert fast.total >= max(0, p.n - k * k)


class TestInvariants:
    @given(permutations_st(min_n=2, max_n=15), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60)
    def test_symmetry_swaps(self, p, k):
        base = count_monotone(p, k)
        rev = count_monotone(p.reverse(), k)
        comp = count_monotone(p.complement(), k)
        inv = count_monotone(p.inverse(), k)
        assert (rev.increasing, rev.decreasing) == (base.decreasing, base.increasing)
        assert (comp.increasing, comp.decreasing) == (base.decreasing, base.increasing)
        assert (inv.increasing, inv.decreasing) == (base.increasing, base.decreasing)

    @given(st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=40)
    def test_erdos_szekeres_supersaturation(self, k, data):
        n = k * k + 1
        vals = data.draw(st.permutations(list(range(1, n + 1))))
        report = count_monotone(Permutation(tuple(vals)), k)
        assert report.total >= 1
        assert report.total >= n - k * k

    @given(permutations_st(min_n=2, max_n=15))
    @settings(max_examples=40)
    def test_zero_count_is_monotone_in_length(self, p):
        zero_seen = False
        for L in range(2, p.n + 2):
            c = count_increasing_exact(p, L)
            if zero_seen:
                assert c == 0
            if c == 0:
                zero_seen = True
