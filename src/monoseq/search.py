"""Exhaustive and heuristic minimization of the monotone-subsequence count,
plus the exhaustive poset analogue.

The exhaustive engine runs a lexicographic DFS over one-line prefixes.
It keeps the layered count indexed by value: for each length t <= k and
value w, the monotone t-subsequences of the prefix that end at w.  One
prefix-sum pass over layer k prices every candidate value at a node, and
a candidate whose prefix count would exceed the best known value is cut
before it is placed; placing a survivor fills layers 1..k, one slice sum
per layer and direction.  The stacked-block formula seeds the bound (the
block permutation is always a candidate), so the bound is sound from the
first node.  Orbit symmetry under reverse/complement/inverse cuts the
tree through necessary conditions on the lexicographically least orbit
member; witnesses are canonicalized at the leaves, so reported minimizers
are orbit representatives.

Workers split the space by the first two positions and never share state,
which keeps results and visit counts bit-reproducible for a fixed
(n, k, budget, seed, workers) tuple.  Each prefix task may visit an equal
share of the node budget, so whether a run fits its budget does not depend
on the workers either.  The process pool is imported on the first
parallel run, so ``import monoseq`` does not load multiprocessing.

The poset enumerator, min_hk_over_posets, places ids along a linear
extension and counts each homogenous (k+1)-set at its top id; its
docstring gives the soundness argument for its seed, its closing bound and
its down-set counts, packed one slot per subset size into two integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import accumulate
from math import comb
from typing import Optional

from .counting import brute_force_count, count_monotone, swap_price
from .errors import BudgetExceededError, InvariantError, ValidationError
from .perms import Permutation, build_tau, canonical_form, m_tau_formula
from .posets import Poset

# Largest n accepted by the exhaustive permutation search.
EXHAUSTIVE_MAX_N = 11
# Minimizing witnesses kept per exhaustive run.
WITNESS_CAP = 10_000


@dataclass(frozen=True)
class Budgets:
    """The caps a caller may set on a search run.

    Only the searches read them, so they live here; the CLI builds one from
    ``--budget`` or ``MONOSEQ_BUDGET`` and echoes it, so a run stays
    reproducible.  Every fixed cap lives beside the one check that reads it.
    """

    # Node cap for one exhaustive search run.  Each of its prefix tasks may
    # visit an equal share, budget // tasks, so the run as a whole stays
    # within the cap and the outcome does not depend on the workers.
    search_state_budget: int = 1_000_000_000
    # Largest n accepted by the exhaustive poset search.
    poset_enum_max_n: int = 9

    def __post_init__(self) -> None:
        if self.search_state_budget < 0:
            raise ValidationError(f"search budget must be >= 0, got {self.search_state_budget}")

    def with_overrides(self, **kwargs) -> "Budgets":
        return replace(self, **kwargs)


DEFAULT_BUDGETS = Budgets()


@dataclass(frozen=True)
class SearchResult:
    n: int
    k: int
    minimum: int
    witnesses: list[Permutation]
    type_breakdown: list[tuple[int, int]]
    states_visited: int
    is_upper_bound: bool = False
    witnesses_truncated: bool = False

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "minimum": str(self.minimum),
            "witnesses": [list(w.values) for w in self.witnesses],
            "type_breakdown": [
                {"increasing": str(i), "decreasing": str(d)} for i, d in self.type_breakdown
            ],
            "states_visited": self.states_visited,
            "is_upper_bound": self.is_upper_bound,
            "witnesses_truncated": self.witnesses_truncated,
        }


def _search_task(args) -> tuple[int, list[tuple[int, ...]], int, bool]:
    """DFS below one fixed prefix; returns (best, canonical witnesses, nodes, truncated).

    Each candidate v at a node is priced before the tables change: placing
    it closes the increasing k-subsequences ending below v and the
    decreasing ones ending above v, so its price is count +
    sum(inc[k][:v]) + sum(dec[k][v+1:]), read off one prefix-sum pass over
    layer k per node.  Only a candidate priced within the incumbent is
    pushed, and a push fills layers 1..k at v, the layers a later position
    reads.  Every priced candidate is one visited node, pushed or not.

    Needs k >= 2, which exhaustive_min guarantees by answering k = 1 in
    closed form: the prefix then has at most two values, closes no
    (k+1)-set and is pushed unpriced, so the DFS starts at count 0.
    """
    n, k, prefix, bound, node_budget, witness_cap = args
    # Layers above n stay 0, so every price is 0 once k >= n: k = n visits
    # the same nodes and keeps the same witnesses.
    k = min(k, n)

    vals: list[int] = []
    # inc[t][w] / dec[t][w]: increasing / decreasing t-subsequences of the
    # prefix that end at value w; a value not yet placed reads 0 in every
    # layer, so inc[1][w] is 1 exactly when w is placed.
    inc = [[0] * (n + 1) for _ in range(k + 1)]
    dec = [[0] * (n + 1) for _ in range(k + 1)]
    used = inc[1]
    inc_k, dec_k = inc[k], dec[k]

    best = bound
    witnesses: set[tuple[int, ...]] = set()
    nodes = 0
    truncated = False

    def push(v: int) -> None:
        inc[1][v] = dec[1][v] = 1
        for t in range(2, k + 1):
            inc[t][v] = sum(inc[t - 1][:v])
            dec[t][v] = sum(dec[t - 1][v + 1 :])
        vals.append(v)

    def pop(v: int) -> None:
        for t in range(1, k + 1):
            inc[t][v] = dec[t][v] = 0
        vals.pop()

    def dfs(count: int) -> None:
        nonlocal best, nodes, truncated
        pos = len(vals) + 1  # 1-based position being filled
        if pos > n:
            if count < best:
                best = count
                witnesses.clear()
            word = canonical_form(tuple(vals))
            if word in witnesses or len(witnesses) < witness_cap:
                witnesses.add(word)
            else:
                truncated = True
            return
        p1 = vals[0]
        window_hi = n + 1 - p1
        # The least orbit member has values 1 and n placed inside
        # [p1, n+1-p1]; past that window the branch cannot be canonical.
        if pos > window_hi and (not used[1] or not used[n]):
            return
        ends_allowed = p1 <= pos <= window_hi
        # below[v] = count + sum(inc[k][:v]); above[n - v] = sum(dec[k][v+1:]).
        below = list(accumulate(inc_k, initial=count))
        above = list(accumulate(reversed(dec_k), initial=0))
        for v in range(1, n + 1):
            if used[v]:
                continue
            if not ends_allowed and v in (1, n):
                continue
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    "exhaustive search exceeded a prefix task's share of the node budget",
                    needed=nodes,
                    budget=node_budget,
                )
            new_count = below[v] + above[n - v]
            if new_count <= best:
                push(v)
                dfs(new_count)
                pop(v)

    # _prefixes already applies the position-1 and position-2 rules.
    for v in prefix:
        push(v)
    dfs(0)
    return best, sorted(witnesses), nodes, truncated


def _prefixes(n: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(1,)]
    return [
        (v1, v2)
        for v1 in range(1, (n + 1) // 2 + 1)
        for v2 in range(1, n + 1)
        if v2 != v1
        and not (2 * v1 == n + 1 and 2 * v2 > n)
        # Values 1 and n lie in the window [v1, n+1-v1] of the DFS.
        and not (v2 in (1, n) and v1 > 2)
    ]


def exhaustive_min(
    n: int, k: int, budgets: Budgets = DEFAULT_BUDGETS, workers: int = 1
) -> SearchResult:
    """Exact minimum of the monotone (k+1)-subsequence count over all of S_n.

    Visits one representative per symmetry orbit (up to the prefix rules),
    re-verifies every reported witness with the subset-enumeration oracle,
    and raises if the node budget or EXHAUSTIVE_MAX_N is exceeded.  At most
    WITNESS_CAP minimizing orbits are kept; witnesses_truncated is set whenever any
    other minimizing orbit was found and dropped.

    k = 1 is answered in closed form: every permutation has C(n,2)
    monotone pairs, so no state is visited and the one witness kept is the
    identity, the first minimizing orbit in lexicographic order.
    """
    if n < 1 or k < 1:
        raise ValidationError("n and k must be positive")
    if n > EXHAUSTIVE_MAX_N:
        raise BudgetExceededError(
            f"n = {n} exceeds the exhaustive search cap {EXHAUSTIVE_MAX_N}",
            needed=n,
            budget=EXHAUSTIVE_MAX_N,
        )
    if workers < 1:
        raise ValidationError("workers must be >= 1")

    bound = m_tau_formula(k, n)
    prefixes = _prefixes(n)
    share = budgets.search_state_budget // len(prefixes)
    tasks = [(n, k, prefix, bound, share, WITNESS_CAP) for prefix in prefixes]
    if k == 1:
        # Every pair is monotone, so each permutation counts C(n,2) = bound.
        # The identity is the least orbit representative; S_n has more than
        # one orbit from n = 3 on, so the list is truncated there.
        outcomes = [(bound, [tuple(range(1, n + 1))], 0, n >= 3)]
    elif workers == 1:
        outcomes = [_search_task(t) for t in tasks]
    else:
        # Imported here so that importing the package loads no
        # multiprocessing.  A forked pool starts all of its workers at the
        # first submit, so it gets no more workers than there are tasks.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            outcomes = list(pool.map(_search_task, tasks, chunksize=1))

    minimum = min(o[0] for o in outcomes)
    states = sum(o[2] for o in outcomes)
    merged: set[tuple[int, ...]] = set()
    for o in outcomes:
        if o[0] == minimum:
            merged.update(o[1])
    # Each task keeps up to WITNESS_CAP orbits, so the merge can drop some too.
    truncated = any(o[3] for o in outcomes) or len(merged) > WITNESS_CAP
    witness_words = sorted(merged)[:WITNESS_CAP]
    witnesses = [Permutation(w) for w in witness_words]

    breakdown = []
    for w in witnesses:
        oracle = brute_force_count(w, k)
        if oracle.total != minimum:
            raise InvariantError(f"witness re-check failed for {w}: {oracle.total} != {minimum}")
        breakdown.append((oracle.increasing, oracle.decreasing))

    return SearchResult(
        n=n,
        k=k,
        minimum=minimum,
        witnesses=witnesses,
        type_breakdown=breakdown,
        states_visited=states,
        witnesses_truncated=truncated,
    )


@dataclass(frozen=True)
class TheoremReport:
    n: int
    k: int
    exhaustive_minimum: int
    formula_value: int
    match: bool
    subcritical: bool
    special_n: bool  # n == k^2 + k + 1
    single_type_count: int
    mixed_count: int
    # None where the witness list is truncated and shows no counterexample.
    all_single_type: Optional[bool]
    mixed_split_ok: Optional[bool]  # every mixed minimizer has >= 2k-1 of one type
    witnesses_truncated: bool


def verify_theorem(
    n: int, k: int, budgets: Budgets = DEFAULT_BUDGETS, workers: int = 1
) -> TheoremReport:
    """Exhaustive check of the minimum-value and classification claims.

    For sufficiently large k (the paper's range), away from n = k^2+k+1
    every minimizer uses one monotone type only; at n = k^2+k+1 mixed
    minimizers exist and each still has at least 2k-1 of its 2k+1 monotone
    subsequences of a single type.

    Both clauses are read off the witness list.  When it is truncated, a
    clause is False if a kept witness breaks it and None (not checked)
    otherwise, since the dropped orbits may break it.
    """
    result = exhaustive_min(n, k, budgets, workers)
    formula = m_tau_formula(k, n)
    special = n == k * k + k + 1
    # Verdict on a clause that no kept witness breaks.
    unbroken: Optional[bool] = None if result.witnesses_truncated else True
    mixed = 0
    split_ok: Optional[bool] = unbroken if special else None
    for inc, dec in result.type_breakdown:
        if inc and dec:
            mixed += 1
            if special and max(inc, dec) < 2 * k - 1:
                split_ok = False
    return TheoremReport(
        n=n,
        k=k,
        exhaustive_minimum=result.minimum,
        formula_value=formula,
        match=result.minimum == formula,
        subcritical=n <= k * k,
        special_n=special,
        single_type_count=len(result.witnesses) - mixed,
        mixed_count=mixed,
        all_single_type=unbroken if mixed == 0 else False,
        mixed_split_ok=split_ok,
        witnesses_truncated=result.witnesses_truncated,
    )


def heuristic_min(
    n: int,
    k: int,
    trials: int = 100,
    seed: int = 0,
    max_steps: int = 200,
) -> SearchResult:
    """Upper bound from seeded restarts plus adjacent-swap hill climbing.

    The stacked-block permutation seeds the pool, so the result never
    exceeds the closed-form value; identical seeds reproduce identical
    trajectories.  Each restart's first value is a full count.  A candidate
    swap changes only the (k+1)-sets holding both swapped values, since every
    other pair keeps its order, so its value is current - through_now +
    through_swapped, which counting.swap_price counts from the pair alone.
    Each candidate counts as one evaluation in states_visited.  The best
    value is recounted in full at the end, and InvariantError is raised
    unless the two agree.
    """
    if n < 1 or k < 1:
        raise ValidationError("n and k must be positive")
    if trials < 0 or max_steps < 0:
        raise ValidationError("trials and max_steps must be >= 0")
    rng = random.Random(seed)
    evaluations = 0

    def value(word: tuple[int, ...]) -> int:
        nonlocal evaluations
        evaluations += 1
        return count_monotone(Permutation(word), k).total

    best_word = build_tau(k, n).values
    best_value = value(best_word)
    for _ in range(trials):
        current = list(range(1, n + 1))
        rng.shuffle(current)
        current_value = value(tuple(current))
        for _ in range(max_steps):
            for i in range(n - 1):
                evaluations += 1
                price = swap_price(current, i, k)
                if price < 0:
                    current[i], current[i + 1] = current[i + 1], current[i]
                    current_value += price
                    break
            else:
                break
        if current_value < best_value:
            best_word, best_value = tuple(current), current_value
    witness = Permutation(canonical_form(best_word))
    report = count_monotone(witness, k)
    if report.total != best_value:
        raise InvariantError(f"hill climb tracked {best_value}, recount gives {report.total}")
    return SearchResult(
        n=n,
        k=k,
        minimum=best_value,
        witnesses=[witness],
        type_breakdown=[(report.increasing, report.decreasing)],
        states_visited=evaluations,
        is_upper_bound=True,
    )


# A closed down-set of the ids < j, as a bitmask, mapped to its packed (C_D, A_D).
_DownSets = dict[int, tuple[int, int]]


def _grow(downsets: _DownSets, mask: int, j: int, width: int) -> _DownSets:
    """The down-set map of ids <= j once j goes above the ids in mask.

    downsets is the map of ids < j with its keys ascending; mask is one of
    them.  With x a shift up by one width-bit slot, a key D gets A_D +
    x*A_{D|mask}, and each key D containing mask adds D | {j} with C_D +
    x*C_mask; min_hk_over_posets shows why.  Bit j is above every key, so
    the keys stay ascending.
    """
    under = downsets[mask][0] << width
    child = {d: (c, a + (downsets[d | mask][1] << width)) for d, (c, a) in downsets.items()}
    child.update((d | 1 << j, (c + under, a)) for d, (c, a) in downsets.items() if d & mask == mask)
    return child


def _following(downsets: _DownSets, placed: list[int], mask: int, width: int, k: int) -> list[int]:
    """What placing j + 1 above each key of _grow(downsets, mask, j, width) adds, from placed."""
    low, slot = (k - 1) * width, (1 << width) - 1
    under = downsets[mask][0] >> low & slot
    following = [p + (downsets[d | mask][1] >> low & slot) for d, p in zip(downsets, placed)]
    return following + [p + under for d, p in zip(downsets, placed) if d & mask == mask]


@dataclass(frozen=True)
class PosetSearchResult:
    n: int
    k: int
    minimum: int
    witness_relation: list[tuple[int, int]]  # covering pairs, 1-based
    posets_visited: int
    permutation_minimum: Optional[int]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "minimum": str(self.minimum),
            "witness_relation": [list(p) for p in self.witness_relation],
            "posets_visited": self.posets_visited,
            "permutation_minimum": None
            if self.permutation_minimum is None
            else str(self.permutation_minimum),
        }


def min_hk_over_posets(n: int, k: int, budgets: Budgets = DEFAULT_BUDGETS) -> PosetSearchResult:
    """Exact minimum of the homogenous (k+1)-set count over all n-element posets.

    Enumerates every strict order whose identity labeling is a linear
    extension (each element picks a down-closed predecessor set), which
    reaches every isomorphism class.  A (k+1)-set is counted when its top
    id is placed, so counts grow as elements are added and a prefix is cut
    on a lower bound for its completions; the first minimizer in DFS order
    is never cut, so it is the reported witness.

    Seed: the incumbent starts at m_tau_formula(k, n) + 1 and the cut is
    strict, since the poset of build_tau(k, n) reaches m_tau_formula.

    Closing bound: at depth j every closed down-set D of the prefix is
    placed first, and a is the least count placing j adds over all D.  A
    later id i, restricted to the ids below j, has a closed down-set D_i of
    the prefix; its (k+1)-sets whose other members all lie in the prefix
    are the k-chains in D_i plus the k-antichains outside D_i, which is
    what placing j above D_i adds, so at least a.  These sets have top id
    i, so the terms are disjoint, and a child is cut when count + added +
    (n-j-1)*a reaches the incumbent.

    Guard: a surviving child is entered, and gets its map from _grow, only
    if count' + (n-j-1)*a' stays below the incumbent, with count' = count +
    added and a' its least placement count.  Each added'' >= a', so
    otherwise the child's loop would cut every placement on count' +
    added'' + (n-j-2)*a': skipping it keeps the DFS order, the minimum and
    the first minimizer.  As no slot carries (see Counts), a key D of the
    child adds placed[D] plus slot k-1 of A_{D|M}, and D | {j} adds
    placed[D] plus slot k-1 of C_M.  Each is at least placed[D], so a scan
    by ascending placed[D] decides the guard exactly: it enters at the
    first count at most cap = (best - count' - 1) // (n-j-1) and skips once
    placed[D] passes cap.  A surviving placement of the last id is a leaf
    and updates the incumbent at once.

    Counts: each closed down-set D of the prefix carries two integers in
    slots of width = C(n, n//2).bit_length() bits: slot t of C_D counts the
    t-chains inside D, and of A_D the t-antichains of the prefix outside D,
    so placing j above D adds slot k of C_D + A_D.  When j goes above M,
    the ids below j incomparable with j are exactly those outside M, as ids
    follow a linear extension.  With x a shift up by one slot, a down-set D
    without j keeps C_D and gets A_D + x*A_{D|M} (the antichains that avoid
    j, and j with an antichain outside both D and M); D | M is closed, since
    an id below a member of D or of M lies in D or in M.  D | {j} is closed
    exactly when D contains M; it keeps A_D and gets C_D + x*C_M (the chains
    that avoid j, and j over a chain inside M).  No slot carries: slot t of
    C and of A counts t-subsets of the at most n placed ids, and so does C
    + A for t >= 2, as chains inside D and antichains outside D are
    disjoint; at t = 1 the sum is j + 1 <= n, and slot 0 of C + A is 2.
    Each is at most C(n, n//2) < 2**width for n >= 2, and n = 1 never grows
    a map.  The maps do not depend on k, so no allocation grows with it.
    posets_visited counts every (node, down-set) placement evaluated, cut
    or not, so a child skipped by the guard counts all of its placements.
    Its keys D | {j} are as many as the antichains outside M (the maximal
    elements of D - M): the sum of the slots of A_M.

    At k = 1 every pair is a chain or an antichain, so every order has
    h_1 = C(n,2) and no order is enumerated: the witness is the antichain,
    the first order in DFS order, and posets_visited is 0.
    """
    if n < 1 or k < 1:
        raise ValidationError("n and k must be positive")
    if n > budgets.poset_enum_max_n:
        raise BudgetExceededError(
            f"n = {n} exceeds the poset enumeration cap {budgets.poset_enum_max_n}",
            needed=n,
            budget=budgets.poset_enum_max_n,
        )
    width = comb(n, n // 2).bit_length()
    low, slot = (k - 1) * width, (1 << width) - 1
    below = [0] * n
    best = m_tau_formula(k, n) + 1
    best_below: Optional[list[int]] = None
    visited = 0

    def rec(j: int, count: int, downsets: _DownSets, placed: list[int]) -> None:
        """Enumerate ids j.. given the closed down-sets of ids < j, where
        placed[i] is the count that placing j above the i-th one adds."""
        nonlocal best, best_below, visited
        closing = (n - j - 1) * min(placed)
        ranked = sorted(zip(placed, downsets))
        for mask, added in zip(downsets, placed):
            if count + added + closing >= best:
                continue
            below[j] = mask
            if j == n - 1:
                best, best_below = count + added, list(below)
                continue
            chains, antichains = downsets[mask]
            visited += len(downsets)
            while antichains:  # one key contains mask per antichain outside mask
                visited += antichains & slot
                antichains >>= width
            cap = (best - count - added - 1) // (n - j - 1)
            room = cap - (chains >> low & slot)
            for p, d in ranked:
                if p > cap:
                    break
                if p + (downsets[d | mask][1] >> low & slot) <= cap or d | mask == d and p <= room:
                    following = _following(downsets, placed, mask, width, k)
                    rec(j + 1, count + added, _grow(downsets, mask, j, width), following)
                    break

    if k == 1:
        best, best_below = n * (n - 1) // 2, [0] * n
    else:
        # The empty prefix has one down-set, and placing id 0 above it adds nothing.
        visited = 1
        rec(0, 0, {0: (1, 1)}, [0])
    if best_below is None:
        raise InvariantError("no enumerated order reached the m_tau_formula seed")

    # The winning down-sets are closed, so they are its ``below`` rows as they stand.
    above = tuple(sum(1 << j for j in range(n) if best_below[j] >> i & 1) for i in range(n))
    witness_poset = Poset(n, above, tuple(best_below))
    covers = [(i + 1, j + 1) for i, j in witness_poset.cover_pairs()]

    perm_minimum: Optional[int] = None
    if n <= EXHAUSTIVE_MAX_N:
        perm_minimum = exhaustive_min(n, k, budgets).minimum
        # Every permutation's poset is among the enumerated orders.
        if best > perm_minimum:
            raise InvariantError(
                f"poset minimum {best} exceeds the permutation minimum {perm_minimum}"
            )

    return PosetSearchResult(
        n=n,
        k=k,
        minimum=best,
        witness_relation=covers,
        posets_visited=visited,
        permutation_minimum=perm_minimum,
    )
