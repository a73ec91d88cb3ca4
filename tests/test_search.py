import concurrent.futures
import tracemalloc
from itertools import permutations as iter_permutations
from math import comb

import pytest

from monoseq.counting import brute_force_count, count_monotone
from monoseq.errors import BudgetExceededError, InvariantError, ValidationError
from monoseq.perms import (
    Permutation,
    canonical_form,
    m_tau_formula,
    mu,
)
from monoseq.posets import (
    count_antichains_of_size,
    count_chains_of_size,
    h_k,
    iter_bits,
    poset_from_relation,
)
import monoseq
from monoseq import DEFAULT_BUDGETS, search
from monoseq.search import (
    _following,
    _grow,
    exhaustive_min,
    heuristic_min,
    min_hk_over_posets,
    verify_theorem,
)


class TestExhaustiveMin:
    def test_example_values(self):
        assert exhaustive_min(5, 2).minimum == 1
        assert exhaustive_min(4, 2).minimum == 0

    def test_full_enumeration_meta_check(self):
        # The symmetry-reduced search must agree with a reduction-free sweep.
        for n in range(2, 8):
            for k in (1, 2, 3):
                plain = min(
                    count_monotone(Permutation(vals), k).total
                    for vals in iter_permutations(range(1, n + 1))
                )
                assert exhaustive_min(n, k).minimum == plain, (n, k)

    def test_witnesses_attain_minimum(self):
        result = exhaustive_min(7, 2)
        assert result.minimum == 5
        for w, (inc, dec) in zip(result.witnesses, result.type_breakdown):
            oracle = brute_force_count(w, 2)
            assert oracle.total == 5
            assert (oracle.increasing, oracle.decreasing) == (inc, dec)

    def test_minimum_never_exceeds_formula(self):
        for n in range(2, 9):
            assert exhaustive_min(n, 2).minimum <= m_tau_formula(2, n)

    def test_determinism(self):
        a = exhaustive_min(6, 2)
        b = exhaustive_min(6, 2)
        assert (a.minimum, a.witnesses, a.states_visited) == (
            b.minimum,
            b.witnesses,
            b.states_visited,
        )

    def test_worker_count_does_not_change_results(self):
        a = exhaustive_min(7, 2, workers=1)
        b = exhaustive_min(7, 2, workers=3)
        assert (a.minimum, a.witnesses, a.states_visited) == (
            b.minimum,
            b.witnesses,
            b.states_visited,
        )

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        # (6, 2) has 13 prefix tasks; a pool started on fork launches all of
        # its workers at once, so 64 workers must ask for 13 processes.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        # exhaustive_min imports the pool when it needs one, so the patch
        # goes on the module it is imported from.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        wide = exhaustive_min(6, 2, workers=64)
        assert sizes == [13]
        assert wide == exhaustive_min(6, 2, workers=1)

    def test_a_loose_seed_is_lowered_to_the_same_minimizers(self):
        # The m_tau seed is tight at every n the search reaches, so no task
        # ever lowers its incumbent.  Seeded 3 above it, the (7, 2) tasks
        # lower theirs and must still end with the same minimum and witnesses.
        loose = m_tau_formula(2, 7) + 3
        outcomes = [
            search._search_task((7, 2, prefix, loose, 10**9, search.WITNESS_CAP))
            for prefix in search._prefixes(7)
        ]
        minimum = min(best for best, *_ in outcomes)
        merged = {w for best, words, *_ in outcomes if best == minimum for w in words}
        exact = exhaustive_min(7, 2)
        assert minimum == exact.minimum == 5
        assert merged == {w.values for w in exact.witnesses}

    def test_visit_counts_are_pinned(self):
        # Frozen visit counts: a change to how a node is evaluated must not
        # change which nodes the search visits.
        assert exhaustive_min(9, 2).states_visited == 176_141
        assert exhaustive_min(9, 3).states_visited == 56_103
        # At k >= 4 a push fills more than one layer past the first.
        for (n, k), pinned in {(8, 4): (0, 3_432, 28_864), (7, 5): (0, 681, 4_312)}.items():
            result = exhaustive_min(n, k)
            assert (result.minimum, len(result.witnesses), result.states_visited) == pinned
            assert not result.witnesses_truncated

    def test_orbits_at_k4_match_a_reduction_free_sweep(self):
        # Every permutation of [7] without a monotone 5-subsequence, grouped
        # into orbits by canonical_form: the search must keep exactly these.
        orbits = {
            canonical_form(vals)
            for vals in iter_permutations(range(1, 8))
            if count_monotone(Permutation(vals), 4).total == 0
        }
        result = exhaustive_min(7, 4)
        assert result.minimum == 0 and not result.witnesses_truncated
        assert {w.values for w in result.witnesses} == orbits

    def test_size_cap(self):
        with pytest.raises(BudgetExceededError):
            exhaustive_min(20, 2)

    def test_node_budget(self):
        tight = DEFAULT_BUDGETS.with_overrides(search_state_budget=50)
        with pytest.raises(BudgetExceededError):
            exhaustive_min(8, 2, tight)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_node_budget_is_shared_by_the_prefix_tasks(self, workers):
        # (8, 2) runs 24 prefix tasks, the largest visiting 1,328 nodes: each
        # task may visit budget // 24, so 24 * 1,328 = 31,872 is the least
        # budget that fits, whatever the workers.
        fits = DEFAULT_BUDGETS.with_overrides(search_state_budget=31_872)
        assert exhaustive_min(8, 2, fits, workers).states_visited <= 31_872
        short = DEFAULT_BUDGETS.with_overrides(search_state_budget=31_871)
        with pytest.raises(BudgetExceededError):
            exhaustive_min(8, 2, short, workers)

    def test_budgets_live_in_search(self):
        assert monoseq.Budgets is search.Budgets
        assert monoseq.DEFAULT_BUDGETS is search.DEFAULT_BUDGETS == search.Budgets()

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValidationError):
            DEFAULT_BUDGETS.with_overrides(search_state_budget=-1)
        assert DEFAULT_BUDGETS.with_overrides(search_state_budget=0).search_state_budget == 0

    def test_k_past_n_visits_the_nodes_of_k_equal_to_n(self):
        # Past k = n every count is 0, so the layers stop at n.
        far, near = exhaustive_min(5, 10**5), exhaustive_min(5, 5)
        assert (far.minimum, far.states_visited, len(far.witnesses)) == (0, 111, 23)
        assert (far.states_visited, far.witnesses) == (near.states_visited, near.witnesses)

    def test_witness_cap_dropped_in_merge_sets_truncated(self, monkeypatch):
        # (8, 2) has 6 minimizing orbits, at most 4 in any one prefix task:
        # a cap of 4 truncates only when the tasks' lists are merged.
        monkeypatch.setattr(search, "WITNESS_CAP", 4)
        capped = exhaustive_min(8, 2)
        assert len(capped.witnesses) == 4
        assert capped.witnesses_truncated
        monkeypatch.setattr(search, "WITNESS_CAP", 6)
        exact = exhaustive_min(8, 2)
        assert len(exact.witnesses) == 6
        assert not exact.witnesses_truncated

    def test_k1_in_closed_form(self):
        # Every permutation has C(9,2) = 36 monotone pairs, so nothing is
        # searched; the identity is the witness a cap of 1 keeps.
        result = exhaustive_min(9, 1)
        assert result.minimum == 36 and result.states_visited == 0
        assert result.witnesses == [Permutation(tuple(range(1, 10)))]
        assert result.type_breakdown == [(36, 0)]
        assert result.witnesses_truncated
        assert not exhaustive_min(2, 1).witnesses_truncated

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            exhaustive_min(0, 2)
        with pytest.raises(ValidationError):
            exhaustive_min(5, 2, workers=0)


class TestVerifyTheorem:
    def test_special_length_has_bounded_mixed_split(self):
        report = verify_theorem(7, 2)
        assert report.match and report.special_n
        assert report.mixed_count > 0
        assert report.mixed_split_ok

    def test_mixed_minimizers_exist_beyond_special_length_at_small_k(self):
        # At k = 2 the single-type classification genuinely fails: these
        # counts are frozen from the reduction-free sweep of S_8 below.
        report = verify_theorem(8, 2)
        assert report.match
        assert report.mixed_count == 3
        assert not report.all_single_type

    def test_reduction_free_sweep_of_s8(self):
        # Every permutation of [8], no symmetry reduction, minimizers grouped
        # into orbits by canonical_form: the search must find the same ones.
        counts = {
            vals: count_monotone(Permutation(vals), 2)
            for vals in iter_permutations(range(1, 9))
        }
        minimum = min(r.total for r in counts.values())
        minimizers = [vals for vals, r in counts.items() if r.total == minimum]
        orbits = {canonical_form(vals) for vals in minimizers}
        mixed = [w for w in orbits if counts[w].increasing and counts[w].decreasing]
        assert (minimum, len(minimizers), len(orbits), len(mixed)) == (8, 16, 6, 3)
        search = exhaustive_min(8, 2)
        assert search.minimum == minimum
        assert {w.values for w in search.witnesses} == orbits

    def test_truncated_witnesses_leave_the_clauses_unchecked(self, monkeypatch):
        # The 2 least of the 6 orbits at (8, 2) are single type; 3 of the
        # dropped ones are mixed.
        monkeypatch.setattr(search, "WITNESS_CAP", 2)
        report = verify_theorem(8, 2)
        assert report.witnesses_truncated and report.mixed_count == 0
        assert report.all_single_type is None
        # A kept mixed witness still settles the clause.
        monkeypatch.setattr(search, "WITNESS_CAP", 3)
        report = verify_theorem(8, 2)
        assert report.witnesses_truncated and report.mixed_count == 1
        assert report.all_single_type is False
        # At the special length the split clause is unchecked the same way.
        monkeypatch.setattr(search, "WITNESS_CAP", 1)
        report = verify_theorem(7, 2)
        assert report.witnesses_truncated and report.mixed_count == 0
        assert report.mixed_split_ok is None

    def test_subcritical_note(self):
        report = verify_theorem(9, 3)
        assert report.subcritical and report.exhaustive_minimum == 0

    def test_formula_agreement_small(self):
        for n in (5, 6, 7, 8):
            assert verify_theorem(n, 2).match


def _falling_blocks(*sizes: int) -> tuple[int, ...]:
    """Decreasing runs of the given sizes, each above the one before."""
    out, top = [], 0
    for size in sizes:
        out += range(top + size, top, -1)
        top += size
    return tuple(out)


class TestHeuristicMin:
    def test_block_seed_caps_the_result(self):
        assert heuristic_min(13, 3, trials=3, seed=0).minimum <= 7

    def test_deterministic_trajectories(self):
        a = heuristic_min(12, 3, trials=4, seed=42)
        b = heuristic_min(12, 3, trials=4, seed=42)
        assert (a.minimum, a.witnesses, a.states_visited) == (
            b.minimum,
            b.witnesses,
            b.states_visited,
        )

    def test_flagged_as_upper_bound(self):
        assert heuristic_min(6, 2, trials=2, seed=0).is_upper_bound

    def test_never_below_exhaustive(self):
        exact = exhaustive_min(6, 2).minimum
        for seed in range(5):
            assert heuristic_min(6, 2, trials=3, seed=seed).minimum >= exact

    def test_supersaturation_window(self):
        result = heuristic_min(20, 4, trials=3, seed=7)
        assert 4 <= result.minimum <= 5
        assert result.minimum >= 20 - 16
        assert result.minimum <= m_tau_formula(4, 20)

    @pytest.mark.parametrize("trials,max_steps", [(-1, 200), (3, -1)])
    def test_rejects_negative_trials_or_steps(self, trials, max_steps):
        with pytest.raises(ValidationError):
            heuristic_min(5, 2, trials=trials, max_steps=max_steps)

    def test_zero_trials_keep_the_block_seed(self):
        result = heuristic_min(5, 2, trials=0)
        assert (result.minimum, result.states_visited) == (m_tau_formula(2, 5), 1)

    def test_a_mispriced_swap_is_caught(self, monkeypatch):
        monkeypatch.setattr(search, "swap_price", lambda word, i, k: -1)
        with pytest.raises(InvariantError):
            heuristic_min(6, 2, trials=1, seed=0, max_steps=3)

    # (minimum, states_visited, witness) as the hill climb recounting every
    # candidate in full reported them; a pricing slip moves states_visited.
    @pytest.mark.parametrize(
        "n,k,trials,seed,max_steps,minimum,visited,witness",
        [
            (40, 3, 16, 1, 25, 2431, 2280, _falling_blocks(13, 13, 14)),
            (40, 3, 16, 2, 25, 2431, 2092, _falling_blocks(13, 13, 14)),
            (13, 3, 3, 0, 200, 7, 237, _falling_blocks(4, 4, 5)),
            (20, 4, 3, 7, 200, 4, 525, _falling_blocks(5, 5, 5, 5)),
            (12, 2, 5, 3, 200, 40, 398, _falling_blocks(6, 6)),
            (9, 1, 3, 5, 200, 36, 28, tuple(range(1, 10))),
            (12, 10**6, 100, 0, 200, 0, 1201, tuple(range(1, 13))),
        ],
    )
    def test_pinned(self, n, k, trials, seed, max_steps, minimum, visited, witness):
        result = heuristic_min(n, k, trials=trials, seed=seed, max_steps=max_steps)
        assert (result.minimum, result.states_visited) == (minimum, visited)
        assert [w.values for w in result.witnesses] == [witness]


def _reference_grow(downsets, mask, j):
    """The down-set map of ids <= j on list vectors: C_D[t] and A_D[t] for
    t = 0..k, with A'_D[s] = A_D[s] + A_{D|mask}[s-1] and, for each D
    containing mask, C'_{D|{j}}[t] = C_D[t] + C_mask[t-1]."""
    child = {}
    for d, (chains, antichains) in downsets.items():
        joined = downsets[d | mask][1]
        child[d] = (chains, [1] + [a + b for a, b in zip(antichains[1:], joined)])
    under = downsets[mask][0]
    for d, (chains, antichains) in downsets.items():
        if d & mask == mask:
            child[d | 1 << j] = ([1] + [c + b for c, b in zip(chains[1:], under)], antichains)
    return child


def _reference_poset_minimum(n: int, k: int) -> tuple[int, list[tuple[int, int]], int]:
    """min_hk_over_posets on list vectors and without the guard: every
    surviving placement builds its child's map with _reference_grow, and
    posets_visited is counted on entering a node.  Returns the minimum,
    witness relation and count."""
    below = [0] * n
    best, best_below, visited = m_tau_formula(k, n) + 1, None, 0

    def rec(j, count, downsets):
        nonlocal best, best_below, visited
        if j == n:
            if count < best:
                best, best_below = count, list(below)
            return
        visited += len(downsets)
        placed = [chains[k] + antichains[k] for chains, antichains in downsets.values()]
        closing = (n - j - 1) * min(placed)
        for mask, added in zip(downsets, placed):
            if count + added + closing < best:
                below[j] = mask
                rec(j + 1, count + added, _reference_grow(downsets, mask, j))

    rec(0, 0, {0: ([1] + [0] * k, [1] + [0] * k)})
    pairs = [(i, j) for j in range(n) for i in range(n) if best_below[j] >> i & 1]
    covers = [(i + 1, j + 1) for i, j in poset_from_relation(n, pairs).cover_pairs()]
    return best, covers, visited


class TestMinHkOverPosets:
    def test_two_disjoint_two_chains(self):
        result = min_hk_over_posets(4, 2)
        assert result.minimum == 0
        assert len(result.witness_relation) == 2

    def test_five_elements(self):
        result = min_hk_over_posets(5, 2)
        assert result.minimum == 1
        assert result.permutation_minimum == 1

    def test_six_elements(self):
        result = min_hk_over_posets(6, 2)
        assert result.minimum == 2
        assert result.permutation_minimum == 2
        assert result.posets_visited == 728

    def test_reduction_free_sweep_of_small_orders(self):
        # Every strict order on 0..n-1 that the identity labeling extends,
        # found by testing each set of pairs (i, j), i < j, for transitivity,
        # and h_k counted on each one from scratch.  This checks the closed
        # form at k = 1 as well as the enumeration at k = 2, 3.
        for n in range(1, 7):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            orders = []
            for mask in range(1 << len(pairs)):
                rel = [p for b, p in enumerate(pairs) if (mask >> b) & 1]
                above = [0] * n
                for i, j in rel:
                    above[i] |= 1 << j
                if all(above[j] & ~above[i] == 0 for i, j in rel):
                    orders.append(poset_from_relation(n, rel))
            assert len(orders) == (1, 2, 7, 40, 357, 4_824)[n - 1]
            for k in (1, 2, 3):
                result = min_hk_over_posets(n, k)
                assert result.minimum == min(h_k(P, k) for P in orders), (n, k)
                witness = poset_from_relation(
                    n, [(i - 1, j - 1) for i, j in result.witness_relation]
                )
                assert h_k(witness, k) == result.minimum, (n, k)

    def test_down_set_counts_follow_the_recurrence(self):
        # Every order the enumerator reaches at n <= 6, grown one id at a time
        # by _grow without any cut.  Each node's keys must be exactly the
        # closed down-sets of its order, in ascending order, and every slot of
        # each down-set's two integers must match counts made from scratch on
        # the induced orders.  The placement counts _following derives from
        # the parent's for k = 2..4 must be the k-chains inside plus the
        # k-antichains outside each key, in key order.
        n, ks = 6, (2, 3, 4)
        width = comb(n, n // 2).bit_length()
        sizes = range(1, n + 1)

        def packed(counts):
            assert all(c < 1 << width for c in counts)
            return sum(c << t * width for t, c in enumerate(counts))

        stack = [([], {0: (1, 1)}, {k: [0] for k in ks})]
        while stack:
            below, downsets, placed = stack.pop()
            j = len(below)
            P = poset_from_relation(j, [(i, x) for x in range(j) for i in iter_bits(below[x])])
            closed = [d for d in range(1 << j) if all(below[x] & ~d == 0 for x in iter_bits(d))]
            assert list(downsets) == closed, below
            for i, d in enumerate(closed):
                inside = P.induced(list(iter_bits(d)))
                rest = P.induced([x for x in range(j) if not d >> x & 1])
                chains = [1] + [count_chains_of_size(inside, t) for t in sizes]
                antichains = [1] + [count_antichains_of_size(rest, t) for t in sizes]
                assert downsets[d] == (packed(chains), packed(antichains)), (below, d)
                for k, counts in placed.items():
                    assert counts[i] == chains[k] + antichains[k], (below, d, k)
            if j < n:
                for mask in closed:
                    following = {
                        k: _following(downsets, counts, mask, width, k)
                        for k, counts in placed.items()
                    }
                    stack.append((below + [mask], _grow(downsets, mask, j, width), following))

    def test_longer_vectors_at_k_3_and_4(self):
        # k >= 3 reads the slots past slot 2.
        result = min_hk_over_posets(8, 3)
        assert (result.minimum, result.posets_visited) == (0, 108)
        result = min_hk_over_posets(7, 4)
        assert (result.minimum, result.posets_visited) == (0, 91)

    def test_poset_minimum_bounded_by_permutation_minimum(self):
        for n in (3, 4, 5, 6):
            result = min_hk_over_posets(n, 2)
            assert result.minimum <= result.permutation_minimum

    def test_witness_relation_is_pinned(self):
        # The first minimizer in DFS order; a bound that is not admissible
        # and cuts it reports a different relation.
        assert min_hk_over_posets(7, 2).witness_relation == [
            (1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (3, 5), (3, 7), (4, 6), (4, 7),
        ]
        result = min_hk_over_posets(8, 2)
        assert result.minimum == result.permutation_minimum == 8
        assert result.posets_visited == 106_613
        assert result.witness_relation == [
            (1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (2, 8),
            (3, 5), (3, 7), (3, 8), (4, 6), (4, 7), (4, 8),
        ]
        result = min_hk_over_posets(9, 2)
        assert result.minimum == result.permutation_minimum == 14
        assert result.posets_visited == 4_097_369
        assert result.witness_relation == [
            (1, 6), (1, 7), (1, 8), (1, 9), (2, 6), (2, 7), (2, 8), (3, 6),
            (3, 7), (3, 9), (4, 6), (4, 8), (4, 9), (5, 7), (5, 8), (5, 9),
        ]

    def test_early_cut_matches_the_reference(self):
        # The packed maps and the guard against list vectors without the
        # guard: neither may change the DFS order or the count of evaluated
        # placements.
        for n, k in [(n, k) for k in (2, 3) for n in range(1, 9)] + [(7, 4)]:
            result = min_hk_over_posets(n, k)
            found = (result.minimum, result.witness_relation, result.posets_visited)
            assert found == _reference_poset_minimum(n, k), (n, k)

    def test_down_set_maps_only_for_surviving_children(self, monkeypatch):
        # One map per child the guard enters; the guard decides from the
        # parent's counts, so the 4,155 children it skips get no map.
        calls = []
        grow = search._grow

        def counted(downsets, mask, j, width):
            calls.append(j)
            return grow(downsets, mask, j, width)

        monkeypatch.setattr(search, "_grow", counted)
        assert min_hk_over_posets(8, 2).posets_visited == 106_613
        assert len(calls) == 1_157

    def test_size_cap(self):
        with pytest.raises(BudgetExceededError):
            min_hk_over_posets(10, 2)

    @pytest.mark.parametrize("n, k", [(0, 2), (3, 0)])
    def test_rejects_sizes_below_one(self, n, k):
        with pytest.raises(ValidationError, match="must be positive"):
            min_hk_over_posets(n, k)

    def test_k1_in_closed_form(self):
        # Every order has h_1 = C(n,2); the antichain is reported without enumerating.
        result = min_hk_over_posets(9, 1)
        assert (result.minimum, result.permutation_minimum) == (36, 36)
        assert result.witness_relation == []
        assert result.posets_visited == 0


@pytest.mark.parametrize(
    "run",
    [
        lambda k: exhaustive_min(5, k),
        lambda k: min_hk_over_posets(5, k),
        lambda k: brute_force_count(Permutation((2, 1, 3)), k),
    ],
    ids=["exhaustive_min", "min_hk_over_posets", "brute_force_count"],
)
def test_no_allocation_grows_with_k(run):
    # Every count is 0 past k = n, so k = 10**5 needs no more memory than
    # k = n; a table or index array of k entries would take megabytes.
    tracemalloc.start()
    try:
        run(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000, peak


class TestDensity:
    def test_density_of_exhaustive_minima_is_monotone(self):
        values = [mu(2, n, exhaustive_min(n, 2).minimum) for n in range(5, 9)]
        assert values == sorted(values)
