"""Exact counting of monotone subsequences of a fixed length.

One private kernel counts the increasing subsequences of every length up to
a cap, one layer at a time over a value-indexed binary indexed tree
(O(n * L * log n) big-integer additions).  Decreasing counts run the same
kernel on the position-reversed permutation, and the chains and antichains
of a dimension-2 poset (``monoseq.posets``) run it on the poset's witness,
so there is a single code path to trust.  A plain subset-enumeration oracle
cross-checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import BudgetExceededError, ValidationError
from .perms import Permutation

# Largest number of subsets a brute-force subsequence count may visit.
SUBSET_BUDGET = 2_000_000


class _Fenwick:
    """Binary indexed tree over values 1..n with big-integer sums."""

    __slots__ = ("n", "tree")

    def __init__(self, n: int):
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        tree = self.tree
        while i <= self.n:
            tree[i] += delta
            i += i & -i

    def prefix(self, i: int) -> int:
        tree = self.tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total


@dataclass(frozen=True)
class CountReport:
    """Exact per-type counts of monotone (k+1)-subsequences."""

    k: int
    increasing: int
    decreasing: int

    @property
    def total(self) -> int:
        return self.increasing + self.decreasing

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "increasing": self.increasing,
            "decreasing": self.decreasing,
            "total": self.total,
        }


@dataclass(frozen=True)
class LengthProfile:
    """Per-length exact counts, length L = 2 .. Lmax."""

    per_length: dict[int, tuple[int, int]]

    def to_json_dict(self) -> dict:
        return {
            str(L): {"increasing": inc, "decreasing": dec}
            for L, (inc, dec) in sorted(self.per_length.items())
        }


def _chain_totals(p: Permutation, top: int) -> list[int]:
    """totals[L] = number of increasing L-subsequences of p, for L = 1..top <= n.

    Layered recurrence f_L(i) = sum_{j < i, p(j) < p(i)} f_{L-1}(j) with
    f_1 = 1.  Each layer gets a fresh binary indexed tree keyed by value, and
    only the previous and the current per-position vectors are alive.
    """
    values = p.values
    prev = [1] * p.n
    totals = [0, p.n]
    for _ in range(2, top + 1):
        tree = _Fenwick(p.n)
        cur = []
        for v, f in zip(values, prev):
            cur.append(tree.prefix(v - 1))
            if f:
                tree.add(v, f)
        totals.append(sum(cur))
        prev = cur
    return totals


def count_increasing_exact(p: Permutation, L: int) -> int:
    """Number of index sets i_1 < ... < i_L with strictly increasing values."""
    if L < 1:
        raise ValidationError("subsequence length must be >= 1")
    if L > p.n:
        return 0
    return _chain_totals(p, L)[L]


def count_monotone(p: Permutation, k: int) -> CountReport:
    """Exact counts of increasing and decreasing (k+1)-subsequences."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    return CountReport(
        k=k,
        increasing=count_increasing_exact(p, k + 1),
        decreasing=count_increasing_exact(p.reverse(), k + 1),
    )


def brute_force_count(p: Permutation, k: int) -> CountReport:
    """Subset-enumeration oracle with the same contract as count_monotone."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    n, m = p.n, k + 1
    work = comb(n, m)
    if work > SUBSET_BUDGET:
        raise BudgetExceededError(
            f"C({n},{m}) = {work} subsets exceed the enumeration budget",
            needed=work,
            budget=SUBSET_BUDGET,
        )
    # The values are distinct, so a subset is increasing exactly when it
    # equals its sorted order, and decreasing exactly when its reverse does.
    inc = dec = 0
    for sub in combinations(p.values, m):
        ordered = tuple(sorted(sub))
        if sub == ordered:
            inc += 1
        elif sub[::-1] == ordered:
            dec += 1
    return CountReport(k=k, increasing=inc, decreasing=dec)


def length_profile(p: Permutation, Lmax: int) -> LengthProfile:
    """Exact counts for every length 2..Lmax in one layered pass per type."""
    if Lmax < 2:
        raise ValidationError("Lmax must be >= 2")
    top = min(Lmax, p.n)
    pad = [0] * (Lmax - top)
    inc = _chain_totals(p, top) + pad
    dec = _chain_totals(p.reverse(), top) + pad
    return LengthProfile({L: (inc[L], dec[L]) for L in range(2, Lmax + 1)})
