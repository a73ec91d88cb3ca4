import json
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoseq.counting import brute_force_count, count_monotone
from monoseq.errors import ValidationError
from monoseq.perms import (
    Permutation,
    build_sigma_extremal,
    build_tau,
    canonical_form,
    delta_formula,
    identity,
    m_tau_formula,
    mu,
    param_split,
    parse_permutation,
    permutation_from_json,
    symmetries,
)

from conftest import permutations_st


class TestPermutationType:
    def test_rejects_non_bijections(self):
        with pytest.raises(ValidationError):
            Permutation((1, 1, 3))
        with pytest.raises(ValidationError):
            Permutation((0, 1, 2))
        with pytest.raises(ValidationError):
            Permutation(())
        with pytest.raises(ValidationError):
            Permutation((True,))  # bool is an int subclass, not a value

    def test_text_and_json_round_trip(self):
        p = build_tau(3, 13)
        assert parse_permutation(p.to_line()) == p
        assert permutation_from_json(json.loads(json.dumps(p.to_json_dict()))) == p

    def test_slotted_and_picklable(self):
        # Slots keep a retained witness list small; pickling and value
        # equality must survive them.
        p = build_tau(3, 13)
        assert not hasattr(p, "__dict__")
        with pytest.raises(FrozenInstanceError):
            p.values = (1,)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p) and q is not p
        assert len({p, q, Permutation(p.values[::-1])}) == 2

    def test_json_rejects_inconsistent_n(self):
        with pytest.raises(ValidationError):
            permutation_from_json({"n": 4, "values": [1, 2, 3]})

    @given(permutations_st(max_n=10))
    def test_involutions(self, p):
        assert p.reverse().reverse() == p
        assert p.complement().complement() == p
        assert p.inverse().inverse() == p


class TestBuildTau:
    def test_figure_value(self):
        assert build_tau(3, 13).values == (9, 10, 11, 12, 13, 5, 6, 7, 8, 1, 2, 3, 4)

    def test_single_block_is_identity(self):
        assert build_tau(1, 5) == identity(5)

    def test_two_blocks(self):
        assert build_tau(2, 5).values == (3, 4, 5, 1, 2)
        assert count_monotone(build_tau(2, 5), 2).decreasing == 0

    def test_more_blocks_than_values_is_the_reversed_identity(self):
        assert build_tau(10**9, 12).values == tuple(range(12, 0, -1))

    def test_blocks_past_n_change_nothing(self):
        for n in range(1, 13):
            for k in range(n, 3 * n):
                assert build_tau(k, n) == build_tau(n, n), (k, n)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            build_tau(0, 5)
        with pytest.raises(ValidationError):
            build_tau(2, 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 4, 7, 11, 15])
    def test_no_long_decreasing_subsequence(self, k, n):
        report = brute_force_count(build_tau(k, n), k)
        assert report.decreasing == 0


class TestBuildSigma:
    def test_figure_values(self):
        assert build_sigma_extremal(3, 1).values == (10, 6, 11, 12, 13, 2, 7, 8, 9, 1, 3, 4, 5)
        assert build_sigma_extremal(3, 2).values == (10, 6, 11, 12, 13, 3, 7, 8, 9, 1, 2, 4, 5)

    def test_k4_count_signature(self):
        p = build_sigma_extremal(4, 1)
        assert p.n == 21
        report = brute_force_count(p, 4)
        assert (report.increasing, report.decreasing) == (8, 1)

    def test_rejects_bad_variant(self):
        with pytest.raises(ValidationError):
            build_sigma_extremal(3, 3)
        with pytest.raises(ValidationError):
            build_sigma_extremal(1, 1)

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("variant", [1, 2])
    def test_count_signature(self, k, variant):
        p = build_sigma_extremal(k, variant)
        assert p.n == k * k + k + 1
        report = count_monotone(p, k)
        assert (report.increasing, report.decreasing) == (2 * k + 1 - variant, variant)


class TestMTauFormula:
    def test_example_values(self):
        assert m_tau_formula(3, 13) == 7
        assert m_tau_formula(2, 4) == 0
        assert m_tau_formula(2, 7) == 5

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            m_tau_formula(0, 3)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_brute_force_on_tau(self, k):
        for n in range(1, 16):
            expected = brute_force_count(build_tau(k, n), k).total
            assert m_tau_formula(k, n) == expected, (k, n)


class TestParamSplit:
    def test_example_values(self):
        s = param_split(3, 13)
        assert (s.ell, s.q, s.r, s.subcritical) == (1, 1, 1, False)
        s = param_split(3, 14)
        assert (s.ell, s.q, s.r) == (1, 2, 2)
        assert 14 == 2 * 5 + 1 * 4

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_boundary_full_blocks(self, k):
        s = param_split(k, k * k + k)
        assert (s.ell, s.q, s.r) == (0, k, 0)

    def test_subcritical_flag(self):
        assert param_split(3, 9).subcritical
        assert param_split(3, 9).ell < 0
        assert not param_split(3, 10).subcritical

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=900))
    def test_split_identity(self, k, n):
        s = param_split(k, n)
        assert n == s.q * (k + s.ell + 1) + (k - s.q) * (k + s.ell)
        assert 0 < s.q <= k
        assert s.r == n % k
        assert s.subcritical == (n <= k * k)


class TestDeltaFormula:
    def test_example_values(self):
        assert delta_formula(3, 13) == 4
        assert delta_formula(2, 7) == 3

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_erdos_szekeres_onset(self, k):
        assert delta_formula(k, k * k + 1) == 1

    def test_rejects_subcritical(self):
        with pytest.raises(ValidationError):
            delta_formula(3, 9)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_consistency_with_formula_difference(self, k):
        for n in range(k * k + 1, k * k + 3 * k + 1):
            assert delta_formula(k, n) == m_tau_formula(k, n) - m_tau_formula(k, n - 1), (k, n)


class TestSymmetries:
    def test_identity_orbit(self):
        orbit = symmetries(identity(3))
        assert orbit == {Permutation((1, 2, 3)), Permutation((3, 2, 1))}

    def test_swap_orbit(self):
        assert symmetries(Permutation((2, 1))) == {Permutation((2, 1)), Permutation((1, 2))}

    @given(permutations_st(max_n=10))
    def test_orbit_size_divides_eight(self, p):
        assert len(symmetries(p)) in (1, 2, 4, 8)

    @given(permutations_st(min_n=2, max_n=9), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_counts_swap_or_match_across_orbit(self, p, k):
        base = count_monotone(p, k)
        for g in symmetries(p):
            r = count_monotone(g, k)
            assert r.total == base.total
            assert {r.increasing, r.decreasing} == {base.increasing, base.decreasing}

    @given(permutations_st(max_n=9))
    def test_canonical_form_is_least_orbit_member(self, p):
        canon = canonical_form(p.values)
        orbit = {g.values for g in symmetries(p)}
        assert canon in orbit
        assert canon == min(orbit)
        assert canonical_form(canon) == canon


class TestMu:
    def test_example_values(self):
        assert mu(2, 5, 1) == Fraction(1, 10)
        assert mu(3, 9, 0) == 0
        assert mu(3, 13, 7) == Fraction(7, 715)
        assert comb(13, 4) == 715

    def test_rejects_small_n(self):
        with pytest.raises(ValidationError):
            mu(3, 3, 1)
