"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line and enforcing its stated exactness and runtime budget.

Criterion 4 checks the classification clause where the paper can be read
to promise it.  The paper settles the minimizers only for sufficiently large
k, and PAPER.md gives neither the full theorem nor how large k must be, so
no desk-scale k is promised.  The test asserts the clause at the rows the
search reaches where it holds: single type at k = 3, n in {10, 11}, and the
2k-1 split at the special length (7, 2).  At k = 2 the single-type clause
fails: exhaustive search, with every witness re-verified by the
subset-enumeration oracle, finds mixed minimizers at n = 8, 9 and 10 (3, 33
and 7 orbits), and a reduction-free sweep of S_8 agrees.  Those rows are
reported in the PASS line, not asserted.
"""

import random
import time
from itertools import combinations, permutations as iter_permutations
from math import comb

import networkx as nx

from monoseq.counting import brute_force_count, count_monotone
from monoseq.decomposition import decompose, verify_example_structure
from monoseq.lemmas import (
    FunctionTable,
    LabeledTree,
    SetFamily,
    count_connected_subsets,
    distinguishing_sets,
    lower_shadow,
    signature_bound_check,
)
from monoseq.perms import (
    Permutation,
    build_sigma_extremal,
    build_tau,
    canonical_form,
    m_tau_formula,
)
from monoseq.posets import (
    Poset,
    count_chains_of_size,
    dual,
    h_k,
    height,
    poset_from_perm,
)
from monoseq.search import min_hk_over_posets, verify_theorem


def report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.1f}s){suffix}")


def random_perm(rng, n):
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return Permutation(tuple(vals))


def test_01_formula_fidelity():
    start = time.perf_counter()
    ok = True
    for k in range(2, 11):
        n = k * k + k + 1
        value = m_tau_formula(k, n)
        ok = ok and value == 2 * k + 1
        # The layered counter independently reproduces the closed form.
        ok = ok and count_monotone(build_tau(k, n), k).total == value
    elapsed = time.perf_counter() - start
    report(1, "formula fidelity", ok and elapsed < 1.0, elapsed)
    assert ok
    assert elapsed < 1.0


def test_02_exceptional_permutations():
    start = time.perf_counter()
    ok = True
    for k in range(3, 9):
        for variant in (1, 2):
            r = count_monotone(build_sigma_extremal(k, variant), k)
            ok = ok and (r.increasing, r.decreasing) == (2 * k + 1 - variant, variant)
    elapsed = time.perf_counter() - start
    report(2, "exceptional permutations", ok and elapsed < 1.0, elapsed)
    assert ok
    assert elapsed < 1.0


# Shared by criteria 3 and 4 ("same run").
_theorem_reports = {}


def _theorem_report(n, k):
    if (n, k) not in _theorem_reports:
        _theorem_reports[(n, k)] = verify_theorem(n, k, workers=4)
    return _theorem_reports[(n, k)]


def test_03_theorem_at_desk_scale():
    start = time.perf_counter()
    # n = 9 gives 14: both the closed form and a reduction-free sweep of S_9
    # agree, so the expected row is (1, 2, 5, 8, 14, 20).
    expected_k2 = {5: 1, 6: 2, 7: 5, 8: 8, 9: 14, 10: 20}
    ok = True
    for n in range(5, 11):
        rep = _theorem_report(n, 2)
        ok = ok and rep.match and rep.exhaustive_minimum == expected_k2[n]
        ok = ok and rep.formula_value == expected_k2[n]
    for n, expected in ((10, 1), (11, 2)):
        rep = _theorem_report(n, 3)
        ok = ok and rep.match and rep.exhaustive_minimum == expected
    elapsed = time.perf_counter() - start
    report(3, "theorem at desk scale", ok and elapsed < 600, elapsed)
    assert ok
    assert elapsed < 600


def test_04_classification():
    # The paper promises the clause only for sufficiently large k, a range
    # the repo cannot bound.  k = 3 is the smallest k at which the
    # single-type clause holds at every length the search reaches
    # (EXHAUSTIVE_MAX_N = 11 blocks (12, 3)); at k = 2 it fails at
    # n = 8, 9, 10, so those rows are reported, not asserted.
    start = time.perf_counter()
    special = _theorem_report(7, 2)
    # At k = 2 the split check cannot fail: inc + dec = 2k+1 = 5 forces
    # max(inc, dec) >= 3 = 2k-1.  The row where it can fail, (13, 3), needs
    # a completion bound and a larger EXHAUSTIVE_MAX_N.
    special_ok = (
        special.match
        and special.mixed_count > 0
        and special.mixed_split_ok is True
        and not special.witnesses_truncated
    )
    single = {n: _theorem_report(n, 3) for n in (10, 11)}
    single_ok = all(
        rep.match and rep.all_single_type is True and not rep.witnesses_truncated
        for rep in single.values()
    )
    mixed_k2 = {n: _theorem_report(n, 2).mixed_count for n in (8, 9, 10)}
    ok = special_ok and single_ok
    elapsed = time.perf_counter() - start
    report(
        4,
        "classification",
        ok,
        elapsed,
        detail=(
            f"mixed orbits at k=3, n=10,11: {single[10].mixed_count},{single[11].mixed_count}; "
            f"outside the paper's range, k=2, n=8,9,10: "
            f"{mixed_k2[8]},{mixed_k2[9]},{mixed_k2[10]}"
        ),
    )
    assert special_ok
    assert single_ok, {n: (rep.mixed_count, rep.witnesses_truncated) for n, rep in single.items()}


def test_05_correspondence():
    start = time.perf_counter()
    rng = random.Random(501)
    for _ in range(10_000):
        k = rng.randint(1, 4)
        n = rng.randint(k + 2, 30)
        p = random_perm(rng, n)
        P = poset_from_perm(p)
        r = count_monotone(p, k)
        assert count_chains_of_size(P, k + 1) == r.increasing
        assert h_k(P, k) == r.total
        # Witness-free copies take the predecessor DP, independent of the kernel.
        D = dual(P)
        assert count_chains_of_size(Poset(P.n, P.above, P.below), k + 1) == r.increasing
        assert count_chains_of_size(Poset(D.n, D.above, D.below), k + 1) == r.decreasing
    elapsed = time.perf_counter() - start
    report(5, "correspondence", elapsed < 60, elapsed)
    assert elapsed < 60


def test_06_oracle_equivalence():
    start = time.perf_counter()
    for n in range(1, 9):
        for vals in iter_permutations(range(1, n + 1)):
            p = Permutation(vals)
            for k in range(1, 6):
                fast = count_monotone(p, k)
                slow = brute_force_count(p, k)
                assert (fast.increasing, fast.decreasing) == (
                    slow.increasing,
                    slow.decreasing,
                ), (vals, k)
    # One exhaustive sweep at n = 9 (the supersaturated square-plus-one case).
    for vals in iter_permutations(range(1, 10)):
        p = Permutation(vals)
        fast = count_monotone(p, 2)
        slow = brute_force_count(p, 2)
        assert (fast.increasing, fast.decreasing) == (slow.increasing, slow.decreasing)
    rng = random.Random(601)
    for _ in range(10_000):
        k = rng.randint(1, 5)
        caps = {1: 40, 2: 40, 3: 25, 4: 17, 5: 13}
        n = rng.randint(k + 1, caps[k])
        p = random_perm(rng, n)
        fast = count_monotone(p, k)
        slow = brute_force_count(p, k)
        assert (fast.increasing, fast.decreasing) == (slow.increasing, slow.decreasing)
    elapsed = time.perf_counter() - start
    report(6, "oracle equivalence", elapsed < 300, elapsed)
    assert elapsed < 300


def test_07_decomposition_laws():
    start = time.perf_counter()
    rng = random.Random(701)
    for _ in range(10_000):
        n = rng.randint(2, 30)
        k = rng.randint(1, 4)
        P = poset_from_perm(random_perm(rng, n))
        dec = decompose(P)
        h = dec.h
        assert P.n - h * k == sum(len(lvl) - k for lvl in dec.levels)
        for i in range(h - 1):
            assert dec.sigma[i] >= dec.sigma[i + 1]
            equality = dec.sigma[i] == dec.sigma[i + 1]
            all_degree_one = set(dec.a_prime[i + 1]) == set(dec.b[i + 1])
            assert equality == all_degree_one
            dead_lower = set(dec.levels[i]) - set(dec.a_prime[i])
            live_upper = set(dec.a_prime[i + 1])
            assert not any(
                x in dead_lower and y in live_upper for x, y in dec.hasse[i]
            )
        assert dec.sigma[0] == count_chains_of_size(P, h)
    elapsed = time.perf_counter() - start
    report(7, "decomposition laws", elapsed < 60, elapsed)
    assert elapsed < 60


def _check_lemma_shadow(rng):
    # Exhaustive where the family space is small, randomized on the rest of
    # the ground sizes up to 7 (the full family space over C(7,3) blocks is
    # astronomically large, so it is sampled).
    for g in range(1, 6):
        for a in range(1, g + 1):
            blocks = list(combinations(range(g), a))
            if 2 ** len(blocks) > 2048:
                continue
            for picks in range(1, 2 ** len(blocks)):
                members = [blocks[i] for i in range(len(blocks)) if picks >> i & 1]
                family = SetFamily.from_lists(g, members)
                for b in range(1, a + 1):
                    lower_shadow(family, b)
    for _ in range(10_000):
        g = rng.randint(2, 7)
        a = rng.randint(1, g)
        pool = list(combinations(range(g), a))
        members = rng.sample(pool, rng.randint(1, len(pool)))
        lower_shadow(SetFamily.from_lists(g, members), rng.randint(1, a))


def _check_lemma_signatures(rng):
    for dom_size in (1, 2, 3):
        domain = tuple(range(dom_size))
        rows = [
            tuple((code >> i) & 1 for i in range(dom_size)) for code in range(2**dom_size)
        ]
        for picks in range(1, 2 ** len(rows)):
            chosen = tuple(rows[i] for i in range(len(rows)) if picks >> i & 1)
            distinguishing_sets(FunctionTable(domain=domain, rows=chosen))
    # Ternary alphabet on two points, every table.
    domain = (0, 1)
    rows = [(a, b) for a in range(3) for b in range(3)]
    for size in range(1, 9):
        for chosen in combinations(rows, size):
            distinguishing_sets(FunctionTable(domain=domain, rows=tuple(chosen)))
    for _ in range(5_000):
        dom_size = rng.randint(1, 4)
        domain = tuple(range(dom_size))
        pool = set()
        for _ in range(rng.randint(2, 8)):
            pool.add(tuple(rng.randrange(3) for _ in range(dom_size)))
        distinguishing_sets(FunctionTable(domain=domain, rows=tuple(sorted(pool))))


def _check_lemma_connected_sets():
    for t in range(1, 13):
        for g in nx.nonisomorphic_trees(t) if t > 1 else [nx.trivial_graph()]:
            tree = LabeledTree(t, frozenset(g.edges()))
            for c in range(1, t + 1):
                count_connected_subsets(tree, c)
        path = LabeledTree(t, frozenset((i, i + 1) for i in range(t - 1)))
        for c in range(1, t + 1):
            assert count_connected_subsets(path, c) == t - c + 1


def _check_signature_bound(rng):
    checked = 0

    def sweep(p):
        nonlocal checked
        P = poset_from_perm(p)
        h = height(P)
        for k in range(4, h):
            rep = signature_bound_check(P, k, h - k)
            if rep.preconditions_hold:
                checked += 1
                assert rep.satisfied, (p.values, k)

    for n in range(2, 8):
        seen = set()
        for vals in iter_permutations(range(1, n + 1)):
            canon = canonical_form(vals)
            if canon in seen:
                continue
            seen.add(canon)
            sweep(Permutation(canon))
    for _ in range(3_000):
        sweep(random_perm(rng, rng.randint(8, 12)))
    assert checked > 0


def test_08_lemma_suites():
    start = time.perf_counter()
    rng = random.Random(801)
    _check_lemma_shadow(rng)
    _check_lemma_signatures(rng)
    _check_lemma_connected_sets()
    _check_signature_bound(rng)
    elapsed = time.perf_counter() - start
    report(8, "lemma suites", elapsed < 300, elapsed)
    assert elapsed < 300


def test_09_example_structure():
    start = time.perf_counter()
    ok = True
    for k in range(3, 7):
        r1 = verify_example_structure(poset_from_perm(build_sigma_extremal(k, 1)), k)
        r2 = verify_example_structure(poset_from_perm(build_sigma_extremal(k, 2)), k)
        ok = ok and r1.case == "i" and r1.passed
        ok = ok and r2.case == "ii" and r2.passed
    elapsed = time.perf_counter() - start
    report(9, "example structure", ok and elapsed < 10, elapsed)
    assert ok
    assert elapsed < 10


def test_10_question_one_probe(capsys):
    start = time.perf_counter()
    from monoseq.cli import dispatch

    code = dispatch(["repro", "--quick"])
    quick_out = capsys.readouterr().out
    assert code == 0 and "poset_min" in quick_out

    rows = []
    for n in (5, 6, 7):
        res = min_hk_over_posets(n, 2)
        assert res.permutation_minimum is not None
        assert res.minimum <= res.permutation_minimum
        assert res.posets_visited == {5: 130, 6: 728, 7: 14_052}[n]
        rows.append((n, 2, res.minimum, res.permutation_minimum,
                     res.minimum == res.permutation_minimum))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print("n,k,poset_min,perm_min,equal")
        for row in rows:
            print(",".join(str(x) for x in row))
        report(10, "poset-minimum probe", elapsed < 1800, elapsed)
    assert elapsed < 1800
