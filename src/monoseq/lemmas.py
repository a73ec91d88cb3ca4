"""Standalone verified algorithms behind the auxiliary combinatorial bounds.

Each operation both computes its object exactly (shadow, distinguishing
sets, connected subtree count, chain counts) and checks the bound it is
supposed to witness, so the bound checkers double as regression oracles.
Irrational thresholds are evaluated through outward-rounded rationals: a
"bound satisfied" verdict can never be a rounding artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Hashable, Optional

from .counting import SUBSET_BUDGET
from .decomposition import decompose
from .errors import BudgetExceededError, InvariantError, ValidationError
from .numeric import (
    ceil_pow2_of_sqrt_minus_one,
    exp_neg_upper,
    log2_lower,
)
from .posets import (
    Poset,
    count_chains_of_size,
    count_chains_through,
    h_k,
    height,
    surplus,
    width,
)


@dataclass(frozen=True)
class SetFamily:
    """A family of distinct a-element subsets of a finite ground set."""

    ground_size: int
    members: frozenset[frozenset[int]]

    def __post_init__(self):
        if self.ground_size < 0:
            raise ValidationError("ground size must be nonnegative")
        sizes = {len(m) for m in self.members}
        if len(sizes) > 1:
            raise ValidationError("members must share one cardinality")
        for m in self.members:
            if any(not 0 <= e < self.ground_size for e in m):
                raise ValidationError("member element outside the ground set")

    @property
    def member_size(self) -> int:
        return len(next(iter(self.members))) if self.members else 0

    @classmethod
    def from_lists(cls, ground_size: int, members) -> "SetFamily":
        return cls(ground_size=ground_size, members=frozenset(frozenset(m) for m in members))


def lower_shadow(family: SetFamily, b: int) -> SetFamily:
    """All b-subsets contained in some member; asserts |shadow| >= min(|F|/2, 2^b).

    The bound is the halving consequence of the shadow-size theorem; the
    shadow itself is computed by plain subset expansion since only the
    stated minimum is needed.  The expansion builds |F| * C(a, b) subsets,
    so a family past counting.SUBSET_BUDGET of them is refused up front.
    """
    a = family.member_size
    if family.members and not 0 < b <= a:
        raise ValidationError(f"b must satisfy 0 < b <= {a}")
    if not family.members and b < 1:
        raise ValidationError("b must be positive")
    work = len(family.members) * comb(a, b)
    if work > SUBSET_BUDGET:
        raise BudgetExceededError(
            f"{len(family.members)} * C({a},{b}) = {work} subsets exceed the enumeration budget",
            needed=work,
            budget=SUBSET_BUDGET,
        )
    shadow = frozenset(
        frozenset(sub) for m in family.members for sub in combinations(sorted(m), b)
    )
    f = len(family.members)
    # |shadow| >= min(|F|/2, 2^b) in integers, building 2^(b+1) only when below |F|.
    if 2 * len(shadow) < (2 ** (b + 1) if b + 1 < f.bit_length() else f):
        raise InvariantError(
            f"shadow bound failed: |shadow|={len(shadow)}, |F|={f}, b={b}"
        )
    return SetFamily(ground_size=family.ground_size, members=shadow)


@dataclass(frozen=True)
class FunctionTable:
    """Pairwise distinct functions domain -> anything, given as rows.

    The domain points, and the values in each column, must be orderable
    against each other: the construction breaks ties by the least value,
    and callers report the sets of domain points sorted.
    """

    domain: tuple[Hashable, ...]
    rows: tuple[tuple[Hashable, ...], ...]

    def __post_init__(self):
        if len(set(self.domain)) != len(self.domain):
            raise ValidationError("domain has repeated points")
        for row in self.rows:
            if len(row) != len(self.domain):
                raise ValidationError("row length does not match the domain")
        if len(set(self.rows)) != len(self.rows):
            raise ValidationError("rows must be pairwise distinct")
        if not _orderable(self.domain):
            raise ValidationError("domain points cannot be ordered against each other")
        for pos, x in enumerate(self.domain):
            if not _orderable({row[pos] for row in self.rows}):
                raise ValidationError(f"values at domain point {x!r} cannot be ordered")


def _orderable(values) -> bool:
    try:
        sorted(values)
    except TypeError:
        return False
    return True


def distinguishing_sets(table: FunctionTable) -> list[frozenset[Hashable]]:
    """Small domain subsets on whose pairwise unions all rows stay distinct.

    Splits a class of rows on the least domain point where they disagree,
    leaves the largest value class unmarked (ties broken by least value),
    marks the point in every other class's sets, and splits each class
    again.  The rows of a class agree up to its split point, so each class
    resumes its search past it.  Every returned set has size at most
    log2(M) and any two rows differ on the union of their sets; both
    postconditions are asserted.
    """
    domain, rows = table.domain, table.rows
    M = len(rows)
    sets: list[set] = [set() for _ in range(M)]
    stack = [(list(range(M)), 0)]  # a class of rows and the first point they may disagree on
    while stack:
        live, first = stack.pop()
        if len(live) <= 1:
            continue
        for pos in range(first, len(domain)):
            if len({rows[i][pos] for i in live}) > 1:
                break
        else:
            raise InvariantError("distinct rows must disagree somewhere")
        classes: dict = {}
        for i in live:
            classes.setdefault(rows[i][pos], []).append(i)
        biggest = max(len(members) for members in classes.values())
        majority = min(y for y, members in classes.items() if len(members) == biggest)
        for y, members in classes.items():
            if y != majority:
                for i in members:
                    sets[i].add(domain[pos])
            stack.append((members, pos + 1))

    for i, s in enumerate(sets):
        if (1 << len(s)) > M:
            raise InvariantError(f"set {i} larger than log2(M): {s}")
    dom_index = {x: pos for pos, x in enumerate(domain)}
    for i in range(M):
        for j in range(i + 1, M):
            union = sets[i] | sets[j]
            if all(rows[i][dom_index[x]] == rows[j][dom_index[x]] for x in union):
                raise InvariantError(f"rows {i} and {j} agree on their union")
    return [frozenset(s) for s in sets]


@dataclass(frozen=True)
class LabeledTree:
    """A tree on vertices 0..t-1 given by its t-1 edges."""

    t: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.t < 1:
            raise ValidationError("a tree needs at least one vertex")
        if len(self.edges) != self.t - 1:
            raise ValidationError("a tree on t vertices has t-1 edges")
        parent = list(range(self.t))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            if not (0 <= a < self.t and 0 <= b < self.t) or a == b:
                raise ValidationError(f"bad edge ({a}, {b})")
            ra, rb = find(a), find(b)
            if ra == rb:
                raise ValidationError("edges contain a cycle")
            parent[ra] = rb


def count_connected_subsets(tree: LabeledTree, c: int) -> int:
    """Exact number of connected c-vertex subsets; asserts the t-c+1 floor.

    Rooted DP: for each vertex, count connected sets containing it that
    stay inside its subtree, convolving children one at a time.  Summing
    over the topmost vertex of each subset counts every set once.
    """
    t = tree.t
    if not 1 <= c <= t:
        raise ValidationError(f"c must satisfy 1 <= c <= {t}")
    adj: list[list[int]] = [[] for _ in range(t)]
    for a, b in tree.edges:
        adj[a].append(b)
        adj[b].append(a)

    parent = [-1] * t
    order = [0]  # BFS order from vertex 0; the list grows as the loop reads it
    for x in order:
        for y in adj[x]:
            if y != parent[x]:
                parent[y] = x
                order.append(y)

    # poly[x][s] = connected s-subsets (s <= c) containing x within x's
    # subtree.  In reverse BFS order each child is complete when it folds
    # into its parent: the subtree either adds nothing or a connected set
    # containing the child, so the parent convolves with [1] + poly[child][1:].
    poly = [[0, 1] for _ in range(t)]
    for y in reversed(order[1:]):
        x = parent[y]
        cur, grow = poly[x], [1] + poly[y][1:]
        new = [0] * min(c + 1, len(cur) + len(grow) - 1)
        for s1, a in enumerate(cur):
            for s0, b in enumerate(grow[: len(new) - s1]):
                new[s1 + s0] += a * b
        poly[x] = new

    total = sum(poly[x][c] if c < len(poly[x]) else 0 for x in range(t))
    if total < t - c + 1:
        raise InvariantError(f"connected-set floor failed: {total} < {t - c + 1}")
    return total


@dataclass(frozen=True)
class SignatureBoundReport:
    k: int
    ell: int
    anchor: Optional[int]
    preconditions_hold: bool
    precondition_detail: str
    max_chain_count: int
    bound: Optional[Fraction]
    chain_count: Optional[int]
    satisfied: Optional[bool]

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "ell": self.ell,
            "anchor": None if self.anchor is None else self.anchor + 1,
            "preconditions_hold": self.preconditions_hold,
            "precondition_detail": self.precondition_detail,
            "max_chain_count": str(self.max_chain_count),
            "bound": None if self.bound is None else str(self.bound),
            "chain_count": None if self.chain_count is None else str(self.chain_count),
            "satisfied": self.satisfied,
        }


def signature_bound_check(
    P: Poset, k: int, ell: int, anchor: Optional[int] = None
) -> SignatureBoundReport:
    """Check that many maximum chains force many (k+1)-chains.

    With M maximum chains (through the anchor, if given) and
    m = log2(M) + 1 <= k/4, the poset of height k + ell must contain at
    least exp(-2(ell-1)m/k) * M * C(k+ell, k+1) chains of length k+1
    (through the anchor).  The exponential is replaced by a rational upper
    bound of the exact threshold, so "satisfied" verdicts are sound; on the
    preconditions this is a theorem, so an unsatisfied verdict means a
    defect.
    """
    if k < 1 or ell < 1:
        raise ValidationError("k and ell must be positive")
    dec = decompose(P)
    h = dec.h
    if h != k + ell:
        raise ValidationError(f"height is {h}, expected k + ell = {k + ell}")
    if anchor is not None and not 0 <= anchor < P.n:
        raise ValidationError("anchor out of range")

    M = dec.sigma[0] if anchor is None else count_chains_through(P, h, anchor)
    if M < 1:
        return SignatureBoundReport(
            k, ell, anchor, False, "no maximum chains (M = 0)", 0, None, None, None
        )
    # m = log2(M) + 1 <= k/4  <=>  M^4 <= 2^(k-4)
    if M**4 > (1 << (k - 4) if k >= 4 else 0):
        return SignatureBoundReport(
            k, ell, anchor, False, f"m = log2({M}) + 1 exceeds k/4", M, None, None, None
        )

    m_low = log2_lower(M) + 1
    x_low = Fraction(2 * (ell - 1), k) * m_low
    bound = exp_neg_upper(x_low) * M * comb(k + ell, k + 1)
    if anchor is None:
        chains = count_chains_of_size(P, k + 1)
    else:
        chains = count_chains_through(P, k + 1, anchor)
    return SignatureBoundReport(
        k, ell, anchor, True, "", M, bound, chains, Fraction(chains) >= bound
    )


@dataclass(frozen=True)
class SurplusBoundReport:
    k: int
    t: int
    preconditions: dict[str, bool]
    preconditions_hold: bool
    homogenous_count: int
    threshold: int
    conclusion_holds: bool
    verdict: Optional[bool]  # None when preconditions fail; small-k failures are reported, not raised

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "preconditions": dict(self.preconditions),
            "preconditions_hold": self.preconditions_hold,
            "homogenous_count": str(self.homogenous_count),
            "threshold": str(self.threshold),
            "conclusion_holds": self.conclusion_holds,
            "verdict": self.verdict,
        }


def surplus_conclusion_check(P: Poset, k: int, t: int) -> SurplusBoundReport:
    """Compare the homogenous-set count against the 2^(sqrt(t)-1) floor.

    Preconditions: 0 < t <= k/2, height >= width, and k-surplus >= 3t.
    The comparison is always computed; the verdict is withheld when the
    preconditions fail, and a failed conclusion at small k is a recorded
    observation rather than an error (the floor is asymptotic).
    """
    if k < 1 or t < 1:
        raise ValidationError("k and t must be positive")
    pre = {
        "t_at_most_half_k": 2 * t <= k,
        "height_at_least_width": height(P) >= width(P),
        "surplus_at_least_3t": surplus(P, k) >= 3 * t,
    }
    ok = all(pre.values())
    count = h_k(P, k)
    threshold = ceil_pow2_of_sqrt_minus_one(t)
    holds = count >= threshold
    return SurplusBoundReport(
        k=k,
        t=t,
        preconditions=pre,
        preconditions_hold=ok,
        homogenous_count=count,
        threshold=threshold,
        conclusion_holds=holds,
        verdict=holds if ok else None,
    )
