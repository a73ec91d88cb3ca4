"""Canonical decomposition of a poset into antichain levels, plus the
structural statistics built on top of it.

Level i collects the elements whose longest chain ending there has exactly
i elements, so level 1 is the set of minimal elements and each level is an
antichain.  Between consecutive levels sits a bipartite graph of all
comparable pairs; counting maximum-length chain tails through it gives the
u-values and their level sums, from which all derived sets (elements on a
maximum chain, low-degree elements, and the level index sets that flag
oversized antichains) follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvariantError, ValidationError
from .numeric import log2_upper, sqrt_upper
from .perms import param_split
from .posets import (
    Poset,
    count_antichains_of_size,
    count_chains_of_size,
    iter_bits,
    level_of_each,
    max_bipartite_matching_pairs,
    surplus,
    width,
)


@dataclass(frozen=True)
class Decomposition:
    """Levels, inter-level graphs, tail counts, and the derived sets.

    All element ids are 0-based; ``levels[0]`` is the set of minimal
    elements.  ``hasse[i]`` holds the comparable pairs between levels i+1
    and i+2 as (lower, upper) tuples.  ``u[x]`` counts the chains of length
    h - level(x) + 1 whose minimum is x; ``sigma[i]`` is its sum over level
    i+1, so ``sigma[0]`` is the number of maximum chains.

    Derived sets per level: ``a_prime`` (u >= 1), ``a_double_prime``
    (u >= 2), ``b`` (upper-level a_prime elements with exactly one
    down-neighbor), ``d`` (down-degree exactly two), and
    ``c`` (a_prime elements with at most one up-neighbor in the next
    level's a_prime).
    """

    levels: list[list[int]]
    hasse: list[list[tuple[int, int]]]
    u: list[int]
    sigma: list[int]
    a_prime: list[list[int]]
    a_double_prime: list[list[int]]
    b: list[list[int]]
    c: list[list[int]]
    d: list[list[int]]

    @property
    def h(self) -> int:
        return len(self.levels)


def decompose(P: Poset) -> Decomposition:
    key = "decomposition"
    if key not in P._cache:
        P._cache[key] = _decompose(P)
    return P._cache[key]


def _decompose(P: Poset) -> Decomposition:
    n = P.n
    level = level_of_each(P)
    h = max(level) if n else 0
    levels: list[list[int]] = [[] for _ in range(h)]
    for x in range(n):
        levels[level[x] - 1].append(x)

    hasse: list[list[tuple[int, int]]] = []
    for i in range(h - 1):
        upper = sum(1 << y for y in levels[i + 1])
        hasse.append([(x, y) for x in levels[i] for y in iter_bits(P.above[x] & upper)])

    # Walking the graphs from the top, u[y] is final before any edge reads it.
    u = [0] * n
    for x in levels[-1] if h else []:
        u[x] = 1
    down_deg = [0] * n
    live_up = [0] * n  # up-neighbours with u >= 1
    for edges in reversed(hasse):
        for x, y in edges:
            u[x] += u[y]
            live_up[x] += u[y] >= 1
            down_deg[y] += 1
    sigma = [sum(u[x] for x in lvl) for lvl in levels]

    a_prime = [[x for x in lvl if u[x] >= 1] for lvl in levels]
    a_double_prime = [[x for x in lvl if u[x] >= 2] for lvl in levels]
    b = [[]] + [[y for y in lvl if down_deg[y] == 1] for lvl in a_prime[1:]]
    d = [[]] + [[y for y in lvl if down_deg[y] == 2] for lvl in a_prime[1:]]
    c = [[x for x in lvl if live_up[x] <= 1] for lvl in a_prime[:-1]]
    if h:
        c.append([])

    return Decomposition(levels, hasse, u, sigma, a_prime, a_double_prime, b, c, d)


@dataclass(frozen=True)
class IndexSets:
    """Level indices (1-based) where antichain-size thresholds are exceeded.

    ``f``: levels of size >= k+1.  ``f_prime``: levels i where swapping the
    dead part of level i for the live part of level i+1 reaches size k+1.
    ``f_double_prime``: the analogous set built from u >= 2 elements, only
    defined below max(f_prime).  ``s`` is the chain-count threshold
    (1 + q/ell)k + 50*sqrt(k)*log2(k) as an outward-rounded rational, absent
    when n <= k(k+1) where the ell,q split degenerates.
    """

    k: int
    f: frozenset[int]
    f_prime: frozenset[int]
    f_double_prime: frozenset[int]
    s: Optional[Fraction]
    surplus: int


def index_sets(P: Poset, k: int) -> IndexSets:
    if k < 1:
        raise ValidationError("k must be >= 1")
    dec = decompose(P)
    h = dec.h
    sizes = [len(lvl) for lvl in dec.levels]
    prime = [len(lvl) for lvl in dec.a_prime]
    dprime = [len(lvl) for lvl in dec.a_double_prime]

    f = frozenset(i + 1 for i in range(h) if sizes[i] >= k + 1)
    f_prime = frozenset(
        i + 1 for i in range(h - 1) if sizes[i] - prime[i] + prime[i + 1] >= k + 1
    )
    f_double_prime: frozenset[int] = frozenset()
    if f_prime:
        fp_max = max(f_prime)
        f_double_prime = frozenset(
            i + 1
            for i in range(fp_max - 1)
            if dprime[i + 1] - dprime[i] + sizes[i] >= k + 1
        )

    s_threshold: Optional[Fraction] = None
    if P.n > k * (k + 1):
        split = param_split(k, P.n)
        s_threshold = (1 + Fraction(split.q, split.ell)) * k + 50 * sqrt_upper(k) * log2_upper(k)

    return IndexSets(k, f, f_prime, f_double_prime, s_threshold, surplus(P, k))


@dataclass(frozen=True)
class ChainCoverResult:
    """Outcome of the level-to-level disjoint chain cover construction."""

    chains: list[list[int]]
    d: int
    k: int
    violations: list[tuple[int, int]]  # (level, |a_prime at that level|) where != k


def disjoint_chain_cover(P: Poset, i: int, j: int) -> ChainCoverResult:
    """Disjoint chains climbing the live levels i..j along the inter-level graph.

    Built by reverse induction: start from the live elements of level j as
    singleton chains, then repeatedly extend downward along a maximum
    matching in the inter-level graph, dropping chains that cannot be
    extended disjointly.  Each step keeps as many chains as one matching
    can, but a lower level may fail to extend the ones it keeps, so the
    family need not be a maximum one when live levels differ in size.
    The deficiency d = k - (chains kept) is certified by the matching
    rather than recomputed from a Hall condition.

    Levels are 1-based.  The construction expects every a_prime level in
    i..j to have the same size k; unequal levels are reported in
    ``violations`` (with the cover still computed from k = |a_prime_i|).
    """
    dec = decompose(P)
    h = dec.h
    if not (1 <= i <= j <= h):
        raise ValidationError(f"levels must satisfy 1 <= i <= j <= {h}")
    k = len(dec.a_prime[i - 1])
    violations = [
        (m, len(dec.a_prime[m - 1]))
        for m in range(i, j + 1)
        if len(dec.a_prime[m - 1]) != k
    ]

    chains = [[y] for y in dec.a_prime[j - 1]]
    for m in range(j - 1, i - 1, -1):
        heads = {ch[0]: ch for ch in chains}
        mask = sum(1 << y for y in heads)
        matching = max_bipartite_matching_pairs({x: P.above[x] & mask for x in dec.a_prime[m - 1]})
        chains = [[x] + heads[y] for x, y in sorted(matching.items())]

    d = k - len(chains)
    if not violations and dec.sigma[i - 1] < dec.sigma[j - 1] + d:
        raise InvariantError("chain-cover deficiency bound failed")
    return ChainCoverResult(chains=chains, d=d, k=k, violations=violations)


@dataclass(frozen=True)
class ClauseResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ExampleStructureReport:
    case: Optional[str]  # "i", "ii", or None if the shape clause failed
    clauses: list[ClauseResult]

    @property
    def passed(self) -> bool:
        return all(cl.ok for cl in self.clauses)

    @property
    def first_failure(self) -> Optional[str]:
        return next((cl.name for cl in self.clauses if not cl.ok), None)

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "passed": self.passed,
            "first_failure": self.first_failure,
            "clauses": [
                {"name": cl.name, "ok": cl.ok, "detail": cl.detail} for cl in self.clauses
            ],
        }


def verify_example_structure(P: Poset, k: int) -> ExampleStructureReport:
    """Check every structural clause of the mixed-type extremal family.

    Applies only at n = k^2 + k + 1.  Clauses: k+1 minimal elements; the
    rest splits into k chains and into k antichains (all of size exactly
    k); exactly k maximum chains in the rest; second level of size k; the
    comparability graph on the bottom two levels is a path on 2k+1 vertices
    (case i) or a path on 2k-1 vertices plus a disjoint edge (case ii); in
    case ii the literal ordering condition between the path and the chain
    hanging off the stray second-level element; and the homogenous-set
    split (2k chains + 1 antichain, or 2k-1 chains + 2 antichains).

    The case-ii ordering clause follows the literal reading of the
    condition and is reported as its own clause so an alternative parse
    can be swapped in without disturbing the rest.
    """
    if k < 2:
        raise ValidationError("k must be >= 2")
    if P.n != k * k + k + 1:
        raise ValidationError(f"expected n = k^2+k+1 = {k*k+k+1}, got {P.n}")

    dec = decompose(P)
    a1 = dec.levels[0]
    clauses = [ClauseResult("minimal-level-size", len(a1) == k + 1, f"|A_1| = {len(a1)}")]
    if not clauses[-1].ok:
        return ExampleStructureReport(case=None, clauses=clauses)

    # Deleting A_1 lowers every other level by one, so P \ A_1 has height h - 1.
    rest = P.delete(a1)
    w_rest, h_rest = width(rest), dec.h - 1
    clauses.append(
        ClauseResult("rest-chain-cover", w_rest == k, f"width(P \\ A_1) = {w_rest}")
    )
    clauses.append(
        ClauseResult("rest-antichain-cover", h_rest == k, f"height(P \\ A_1) = {h_rest}")
    )
    max_chains_rest = count_chains_of_size(rest, k)
    clauses.append(
        ClauseResult(
            "rest-max-chain-count", max_chains_rest == k, f"{max_chains_rest} chains of size k"
        )
    )
    # n > k + 1 = |A_1|, so there is a second level.
    a2 = dec.levels[1]
    clauses.append(ClauseResult("second-level-size", len(a2) == k, f"|A_2| = {len(a2)}"))

    case, shape_detail, path_nodes, edge_nodes = _bottom_two_level_shape(P, dec, k)
    clauses.append(ClauseResult("comparability-shape", case is not None, shape_detail))

    if case == "ii":
        clauses.append(_case_two_order_clause(P, dec, path_nodes, edge_nodes))

    if case is not None:
        chains = count_chains_of_size(P, k + 1)
        antichains = count_antichains_of_size(P, k + 1)
        want_chains = 2 * k if case == "i" else 2 * k - 1
        want_antichains = 1 if case == "i" else 2
        clauses.append(
            ClauseResult(
                "homogenous-split",
                chains == want_chains and antichains == want_antichains,
                f"{chains} chains and {antichains} antichains of size k+1",
            )
        )

    return ExampleStructureReport(case=case, clauses=clauses)


def _bottom_two_level_shape(P: Poset, dec: Decomposition, k: int):
    """Classify the comparability graph on the bottom two levels.

    Both levels are antichains, so a member's neighbours in the graph are
    its row bits inside A_1 and A_2.
    """
    left = sum(1 << x for x in dec.levels[0] + dec.levels[1])  # not yet in a component
    adj = {x: (P.above[x] | P.below[x]) & left for x in iter_bits(left)}
    components: list[list[int]] = []
    while left:
        comp = [(left & -left).bit_length() - 1]
        left &= left - 1
        for x in comp:  # comp grows as the search reaches new vertices
            for y in iter_bits(adj[x] & left):
                left ^= 1 << y
                comp.append(y)
        components.append(comp)

    def is_path(comp: list[int]) -> bool:
        # A connected graph with one edge fewer than vertices is a tree,
        # and a tree with no degree above 2 is a path.
        degs = [adj[x].bit_count() for x in comp]
        return sum(degs) == 2 * (len(comp) - 1) and max(degs) <= 2

    sizes = sorted(len(cmp) for cmp in components)
    if sizes == [2 * k + 1] and is_path(components[0]):
        return "i", "path on 2k+1 vertices", components[0], []
    if sizes == [2, 2 * k - 1]:
        big = max(components, key=len)
        small = min(components, key=len)
        if is_path(big) and is_path(small):
            return "ii", "path on 2k-1 vertices plus an edge", big, small
    detail = f"components of sizes {sizes} (neither admissible shape)"
    return None, detail, [], []


def _case_two_order_clause(
    P: Poset, dec: Decomposition, path_nodes: list[int], edge_nodes: list[int]
) -> ClauseResult:
    """The case-ii ordering clause.

    Deleting A_1 lowers every other level by one and leaves u unchanged, so
    u[z] counts the maximum chains of P \\ A_1 that start at the stray A_2
    element z.
    """
    a1 = set(dec.levels[0])
    # The edge joins one element of A_1 to the stray element of A_2.
    z = next(y for y in edge_nodes if y not in a1)
    if dec.u[z] != 1:
        return ClauseResult(
            "path-chain-order", False, f"{dec.u[z]} maximum chains start at the stray element"
        )
    # That chain goes on through the one up-neighbor that has a tail.
    second = next(y for x, y in dec.hasse[1] if x == z and dec.u[y] >= 1)
    ok = any(P.less(a, second) for a in path_nodes if a in a1)
    detail = f"{'a' if ok else 'no'} path element of A_1 lies below the chain's second element"
    return ClauseResult("path-chain-order", ok, detail)
