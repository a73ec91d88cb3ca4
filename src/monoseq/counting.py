"""Exact counting of monotone subsequences of a fixed length.

Two code paths count.  Lengths up to 3 of a permutation of [n], in both
directions, come from one pass over a binary indexed tree of plain small
integers (``_short_totals``): the number b of earlier smaller values at
each position, with the value and the position, gives all four
neighbourhoods of that position, and every pair and triple is counted
there.  Longer lengths come from a private packed kernel that takes a list
of distinct positive values and counts its increasing subsequences of
every length up to a cap over a value-indexed binary indexed tree.  One
tree pass of it counts as many lengths as fit in PACKED_BITS bits of one
integer per tree entry, each in a slot as wide as the largest count a
length up to the cap can reach, so every count stays exact.  It stops at
the first all-zero length.  Decreasing counts run the packed kernel on the
values read backwards, the chains and antichains of a dimension-2 poset
(``monoseq.posets``) on the poset's witness, and ``swap_price``, which
prices an adjacent swap for the hill climb of ``monoseq.search``, on two
filtered value lists.  A plain subset-enumeration oracle cross-checks both
paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress
from math import comb

from .errors import BudgetExceededError, ValidationError
from .perms import Permutation

# Largest number of subsets that brute_force_count may visit, and that
# lemmas.lower_shadow may build.
SUBSET_BUDGET = 2_000_000

# Bits of one packed tree entry; _chain_totals' docstring gives why 1024.
PACKED_BITS = 1024


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


def _chain_totals(values: list[int] | tuple[int, ...], top: int) -> list[int]:
    """totals[L] = number of increasing L-subsequences of values, for L = 0..top.

    values are distinct positive integers, and totals[0] = 1 counts the
    empty subsequence.  Layered recurrence
    f_L(i) = sum_{j < i, v_j < v_i} f_{L-1}(j) with f_1 = 1, summed through a
    binary indexed tree keyed by value.  One tree pass counts g layers
    a..a+g-1 in width-bit slots of one integer: position j inserts
    f_{a-1}(j) + f_a(j) 2^w + ... + f_{a+g-2}(j) 2^((g-1)w), so the query at
    i returns q = f_a(i) + ... + f_{a+g-1}(i) 2^((g-1)w), whose low g - 1
    slots, moved up one, complete i's entry and whose top slot is i's value
    for the next pass; the sum of the q's holds the g new totals.  Each slot
    of an entry, a query or the sum counts increasing L-subsequences of a
    sublist with L <= top, at most C(n, min(top, n // 2)) < 2^width, so no
    slot carries into the next.  No longer chain ends where no (a-1)-chain
    ends, so such positions leave later passes, and once a layer is all
    zero every longer one is too.

    g is PACKED_BITS // width, at least 1 and at most the layers left.  The
    tree holds n entries, so wider ones trade memory for passes: the 66
    kernel calls of the ``count`` benchmark's bulk jobs (seed 1, 2 cores,
    CPython 3.11.7) took 0.71/0.51/0.48/0.46 s and +2.1/2.6/4.0/7.1 MB of
    peak RSS at 512/1024/2048/4096 bits, 1.43 s and +2.1 MB unpacked.
    """
    n, size = len(values), max(values, default=0)
    width = comb(n, min(top, n // 2)).bit_length()
    prev = [1] * n
    totals = [1, n]
    while len(totals) <= top and totals[-1]:
        g = min(max(1, PACKED_BITS // width), top + 1 - len(totals))
        shift = (g - 1) * width
        low = (1 << shift) - 1
        tree = [0] * (size + 1)
        acc, last = 0, []
        for v, f in zip(values, prev):
            i, q = v - 1, 0
            while i:
                q += tree[i]
                i &= i - 1
            acc += q
            last.append(q >> shift)
            f |= (q & low) << width
            while v <= size:
                tree[v] += f
                v += v & -v
        totals += [(acc >> t * width) & ((1 << width) - 1) for t in range(g)]
        if len(totals) <= top:
            values, prev = list(compress(values, last)), list(filter(None, last))
    return (totals + [0] * top)[: top + 1]


def _short_totals(values: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Increasing and decreasing totals for L = 0..3 of a permutation of [n]
    from one tree pass, each laid out like ``_chain_totals(values, 3)``.

    At position j with value v, b earlier values are smaller, so j - b
    earlier ones are larger, v - 1 - b later ones smaller and
    n - v - j + b later ones larger.  A pair is counted at its second
    member, so b pairs rise into v and the other C(n, 2) - sum(b) pairs
    fall.  A triple is counted at its middle member: the earlier smaller
    times the later larger ones rise through v, and the earlier larger
    times the later smaller ones fall.
    """
    n = len(values)
    tree = [0] * (n + 1)
    pairs = rising = falling = 0
    for j, v in enumerate(values):
        i, b = v - 1, 0
        while i:
            b += tree[i]
            i &= i - 1
        i = v
        while i <= n:
            tree[i] += 1
            i += i & -i
        pairs += b
        rising += b * (n - v - j + b)
        falling += (j - b) * (v - 1 - b)
    return [1, n, pairs, rising], [1, n, comb(n, 2) - pairs, falling]


def swap_price(word: list[int], i: int, k: int) -> int:
    """Change in the count of monotone (k+1)-subsequences of the permutation
    word when word[i] and word[i+1] trade places.

    Only the (k+1)-sets holding both values change, since every other pair
    keeps its relative order.  With lo < hi the two values, an increasing
    set through the pair takes its k-1 other members from the values below
    lo before it and above hi after it, and every one of the first lies
    below every one of the second, so these sets are the increasing
    (k-1)-chains of that list; the decreasing sets are the decreasing
    (k-1)-chains of the values above hi before the pair and below lo after
    it.  The pair now rising (a < b) gives the first kind and the swapped
    pair the second, or the other way round.
    """
    if k - 1 > len(word) - 2:
        return 0
    a, b = word[i], word[i + 1]
    lo, hi = min(a, b), max(a, b)
    head, tail = word[:i], word[i + 2 :]
    up = [x for x in head if x < lo] + [x for x in tail if x > hi]
    down = [x for x in head if x > hi] + [x for x in tail if x < lo]
    rising = _chain_totals(up, k - 1)[k - 1]
    falling = _chain_totals(down[::-1], k - 1)[k - 1]
    return falling - rising if a < b else rising - falling


def _count_chains(values: list[int] | tuple[int, ...], L: int) -> int:
    if L < 1:
        raise ValidationError("subsequence length must be >= 1")
    return _chain_totals(values, L)[L] if L <= len(values) else 0


def count_increasing_exact(p: Permutation, L: int) -> int:
    """Number of index sets i_1 < ... < i_L with strictly increasing values."""
    return _count_chains(p.values, L)


def count_decreasing_exact(p: Permutation, L: int) -> int:
    """Number of index sets i_1 < ... < i_L with strictly decreasing values."""
    return _count_chains(p.values[::-1], L)


def count_monotone(p: Permutation, k: int) -> CountReport:
    """Exact counts of increasing and decreasing (k+1)-subsequences; both
    directions from one pass for k <= 2, one packed kernel pass each above."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k <= 2:
        inc, dec = _short_totals(p.values)
        return CountReport(k=k, increasing=inc[k + 1], decreasing=dec[k + 1])
    return CountReport(
        k=k,
        increasing=count_increasing_exact(p, k + 1),
        decreasing=count_decreasing_exact(p, k + 1),
    )


def brute_force_count(p: Permutation, k: int) -> CountReport:
    """Subset-enumeration oracle with the same contract as count_monotone."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    n, m = p.n, k + 1
    if m > n:  # combinations() would allocate m indices to yield nothing
        return CountReport(k=k, increasing=0, decreasing=0)
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
    """Exact counts for every length 2..Lmax: both types from one pass for
    Lmax <= 3, one layered pass per type above."""
    if Lmax < 2:
        raise ValidationError("Lmax must be >= 2")
    if Lmax <= 3:
        inc, dec = _short_totals(p.values)
    else:
        inc = _chain_totals(p.values, Lmax)
        dec = _chain_totals(p.values[::-1], Lmax)
    return LengthProfile({L: (inc[L], dec[L]) for L in range(2, Lmax + 1)})
