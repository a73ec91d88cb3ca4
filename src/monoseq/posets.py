"""Finite strict partial orders with optional order-dimension-2 witnesses.

Elements are 0..n-1 internally (1-based at the JSON boundary).  The strict
order is stored as dense bitmask rows in both directions, so comparability
queries are O(1) and the decomposition loops stay cheap at desk scale.  The
rows come from two constructors, ``poset_from_perm`` (one sweep over a
permutation's values) and ``poset_from_relation`` (a relation closed in
Kahn's topological order), or from rows already closed: ``reverse_order``
swaps the two tuples, and a witness-free ``induced`` keeps part of each.
Only ``poset_from_perm`` attaches a witness, and
``poset_from_json`` is the one place a witness is checked against a
relation.

A witness is a permutation realizing the poset: element i is below j
exactly when i < j as positions and witness(i) < witness(j) as values.
Chains then correspond to increasing subsequences and antichains to
decreasing ones, length-preservingly, so a poset with a witness has its
chains and antichains counted by the ``monoseq.counting`` kernel, and its
levels, height and width read off the witness by patience sorting (the
longest increasing and decreasing subsequences), with no second poset
built.  The dual order (swap the two roles) exists exactly in this
dimension-2 case.

Without a witness, width is n minus a matching over the ``above`` rows,
chains are counted by one sweep over the ``below`` rows in a linear
extension with a popcount for the last member (the chains through an
element are those P minus it lacks), and antichains by a bitmask
backtracking count that stops three members short.  The 3-antichains inside a
candidate set S come from one pass over S, by inclusion-exclusion on the
comparability graph restricted to S.  With r = |S|, a_v = |above[v] & S|,
b_v = |below[v] & S| and d_v = a_v + b_v,

    #3-antichains(S) = C(r, 3) - (r - 2) * sum(d_v) / 2
                       + sum C(d_v, 2) - sum a_v * b_v,

the count of triangles in the complement graph.  The edge term removes
each triple once per comparable pair in it, the C(d_v, 2) term adds back
each triple once per pair of comparable pairs sharing an element, and a
triangle of comparable elements is a 3-chain (by transitivity), counted
once at its middle element by a_v * b_v.  ``count_antichains_of_size``
keeps the node totals of a full backtracking count.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .counting import count_decreasing_exact, count_increasing_exact, count_monotone
from .errors import BudgetExceededError, ValidationError
from .perms import Permutation

# Largest number of backtracking nodes one antichain count on a witness-free
# poset may visit.  A node is one partial antichain of 1 to m - 1 elements,
# whether the backtracking reaches it or the closed-form last three members
# account for it.
ANTICHAIN_NODE_BUDGET = 5_000_000
# Largest poset size a JSON payload may state.  The rows hold n bits in each
# direction, n**2 / 4 bytes in all: 100 MB at this cap.  The witness-free
# width and chain counts read those rows and add O(n) words of their own.
POSET_MAX_N = 20_000


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Poset:
    n: int
    above: tuple[int, ...]  # above[i] = bitmask of j with i < j
    below: tuple[int, ...]  # below[i] = bitmask of j with j < i
    witness: Optional[Permutation] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    def less(self, i: int, j: int) -> bool:
        return bool(self.above[i] >> j & 1)

    def comparable(self, i: int, j: int) -> bool:
        return i != j and (self.less(i, j) or self.less(j, i))

    def relation_pairs(self) -> list[tuple[int, int]]:
        """All strict-order pairs (i, j), 0-based."""
        return [(i, j) for i in range(self.n) for j in iter_bits(self.above[i])]

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Transitive reduction: pairs (i, j) with nothing strictly between."""
        out = []
        for i in range(self.n):
            for j in iter_bits(self.above[i]):
                if not (self.above[i] & self.below[j]):
                    out.append((i, j))
        return out

    def induced(self, keep: Sequence[int]) -> "Poset":
        """Subposet on the given distinct ids, relabeled in ascending id order.

        With a witness, the kept subsequence re-ranked.  Without one, the kept
        part of a closed row is closed: each run of consecutive kept ids moves
        down into place in both row tuples.
        """
        keep = sorted(keep)
        if len(set(keep)) < len(keep) or keep and not 0 <= keep[0] <= keep[-1] < self.n:
            raise ValidationError(f"element ids must be distinct and lie in 0..{self.n - 1}")
        if self.witness is not None and keep:
            vals = [self.witness.values[e] for e in keep]
            order = {v: rank + 1 for rank, v in enumerate(sorted(vals))}
            return poset_from_perm(Permutation(tuple(order[v] for v in vals)))
        runs: dict[int, int] = {}  # gap -> the run of kept ids that moves down by gap
        for pos, e in enumerate(keep):
            runs[e - pos] = runs.get(e - pos, 0) | 1 << e
        above, below = (
            tuple(sum((rows[e] & run) >> gap for gap, run in runs.items()) for e in keep)
            for rows in (self.above, self.below)
        )
        return Poset(len(keep), above, below)

    def delete(self, drop: Iterable[int]) -> "Poset":
        gone = set(drop)
        if gone and not 0 <= min(gone) <= max(gone) < self.n:
            raise ValidationError(f"element ids must lie in 0..{self.n - 1}")
        return self.induced([e for e in range(self.n) if e not in gone])

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "relation": [[i + 1, j + 1] for i, j in self.cover_pairs()]}
        if self.witness is not None:
            out["witness"] = list(self.witness.values)
        return out


def poset_from_perm(p: Permutation) -> Poset:
    """The order with i below j iff i < j as positions and p(i) < p(j).

    Swept by ascending value: ``smaller`` holds the positions passed so far."""
    n = p.n
    full = (1 << n) - 1
    above = [0] * n
    below = [0] * n
    smaller = 0
    for i in sorted(range(n), key=p.values.__getitem__):
        below[i] = smaller & ((1 << i) - 1)
        above[i] = full & ~(smaller | ((2 << i) - 1))
        smaller |= 1 << i
    return Poset(n, tuple(above), tuple(below), p)


def poset_from_relation(n: int, pairs: Iterable[tuple[int, int]]) -> Poset:
    """Build from 0-based strict pairs; covering pairs suffice, closure is computed."""
    if n < 0:
        raise ValidationError("poset size must be nonnegative")
    up = [0] * n
    down = [0] * n
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValidationError(f"bad relation pair ({i}, {j})")
        up[i] |= 1 << j
        down[j] |= 1 << i

    # Kahn's order from the top: an element closes its ``above`` row once
    # none of its direct successors is pending, and ``order`` grows while it
    # is walked.  Predecessors come first in the reverse, so each ``below``
    # row closes over rows already closed too.
    pending = [mask.bit_count() for mask in up]
    order = [i for i in range(n) if not pending[i]]
    above = [0] * n
    for i in order:
        acc = up[i]
        for j in iter_bits(up[i]):
            acc |= above[j]
        above[i] = acc
        for j in iter_bits(down[i]):
            pending[j] -= 1
            if not pending[j]:
                order.append(j)
    if len(order) < n:
        raise ValidationError("relation has a cycle; not a strict partial order")
    below = [0] * n
    for i in reversed(order):
        acc = down[i]
        for j in iter_bits(down[i]):
            acc |= below[j]
        below[i] = acc
    return Poset(n, tuple(above), tuple(below))


def poset_from_json(data) -> Poset:
    if not isinstance(data, dict) or "n" not in data:
        raise ValidationError('poset JSON must be {"n": int, "relation": [[i,j],...], ...}')
    n, relation, witness = data["n"], data.get("relation", []), data.get("witness")
    if type(n) is not int:
        raise ValidationError(f"poset size must be an integer, got {n!r}")
    if not isinstance(relation, list) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
        for e in relation
    ):
        raise ValidationError("poset relation must be a list of [i, j] integer pairs")
    if witness is not None and not isinstance(witness, list):
        raise ValidationError(f"poset witness must be a list, got {witness!r}")
    if n > POSET_MAX_N:
        raise BudgetExceededError(
            f"n = {n} exceeds the poset size cap {POSET_MAX_N}", needed=n, budget=POSET_MAX_N
        )
    p = None if witness is None else Permutation(tuple(witness))
    P = poset_from_relation(n, [(i - 1, j - 1) for i, j in relation])
    if p is not None:
        if p.n != n:
            raise ValidationError("witness length does not match poset size")
        P, stated = poset_from_perm(p), P
        if P.above != stated.above:
            raise ValidationError("witness does not realize the stated relation")
    return P


def chain_poset(n: int) -> Poset:
    return poset_from_perm(Permutation(tuple(range(1, n + 1))))


def antichain_poset(n: int) -> Poset:
    return poset_from_perm(Permutation(tuple(range(n, 0, -1))))


def disjoint_chains_poset(lengths: Sequence[int]) -> Poset:
    """Disjoint union of incomparable chains, realized by stacked blocks."""
    if not lengths or any(m < 1 for m in lengths):
        raise ValidationError("chain lengths must be positive")
    values: list[int] = []
    top = sum(lengths)
    for m in lengths:
        values.extend(range(top - m + 1, top + 1))
        top -= m
    return poset_from_perm(Permutation(tuple(values)))


def dual(P: Poset) -> Poset:
    """The dimension-2 dual: comparability graphs of P and dual(P) partition all pairs."""
    if P.witness is None:
        raise ValidationError("dual requires an order-dimension-2 witness")
    return poset_from_perm(P.witness.complement())


def reverse_order(P: Poset) -> Poset:
    """Transpose the order: x below y in the output iff y below x in P.

    The transpose keeps element ids, so it cannot carry a standard-position
    witness; the result is returned witness-free.
    """
    return Poset(P.n, P.below, P.above, None)


def level_of_each(P: Poset) -> list[int]:
    """level[i] = size of the longest chain whose maximum is i (1-based levels).

    With a witness this is the longest increasing subsequence of the witness
    ending at position i; without one, a sweep in a linear extension that
    puts i one above the highest level its ``below`` row meets, each level a
    bitmask.  Computed once per poset and cached; do not mutate the list.
    """
    key = "levels"
    if key not in P._cache:
        if P.witness is not None:
            P._cache[key] = _patience_levels(P.witness.values)
        else:
            level, members = [0] * P.n, [0]  # members[t]: the elements at level t >= 1
            for i in _linear_extension(P):
                t = len(members)
                while t > 1 and not P.below[i] & members[t - 1]:
                    t -= 1
                if t == len(members):
                    members.append(0)
                members[t] |= 1 << i
                level[i] = t
            P._cache[key] = level
    return P._cache[key]


def _linear_extension(P: Poset) -> list[int]:
    """The elements by ascending ``below`` popcount, each after all below it; cached."""
    key = "extension"
    if key not in P._cache:
        P._cache[key] = sorted(range(P.n), key=lambda i: P.below[i].bit_count())
    return P._cache[key]


def _patience_levels(values: Sequence[int]) -> list[int]:
    """Per position, the length of the longest increasing subsequence ending there.

    Patience sorting: tops[t] is the least value that ends an increasing
    subsequence of length t + 1 so far, so tops ascends, and a value's
    length is one more than the number of tops below it.
    """
    tops: list[int] = []
    levels = []
    for v in values:
        t = bisect_left(tops, v)
        if t == len(tops):
            tops.append(v)
        else:
            tops[t] = v
        levels.append(t + 1)
    return levels


def height(P: Poset) -> int:
    return max(level_of_each(P), default=0)


def width(P: Poset) -> int:
    """Largest antichain.

    With a witness, the antichains of P are the decreasing subsequences of
    the witness, so this is their longest length.  Without one, it is the
    size of a minimum chain cover (Dilworth): n minus a maximum matching
    from each element to the elements above it.
    """
    key = "width"
    if key not in P._cache:
        if P.witness is not None:
            P._cache[key] = max(_patience_levels(P.witness.values[::-1]), default=0)
        else:
            P._cache[key] = P.n - len(max_bipartite_matching_pairs(dict(enumerate(P.above))))
    return P._cache[key]


def max_bipartite_matching_pairs(rows: dict[int, int]) -> dict[int, int]:
    """Maximum matching as a left -> right map (deterministic).

    ``rows[u]`` is the bitmask of left vertex u's right neighbours.  One
    augmenting-path search per left vertex, in ascending order, by a
    depth-first search on an explicit stack whose every step tries the least
    right vertex in ``rows[u] & ~seen``.  A free one ends the path, and each
    left vertex on it takes the partner of the next one.
    """
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    for root in sorted(rows):
        stack = [root]  # left vertices of the path; each after the root is matched
        seen = 0
        while stack:
            untried = rows[stack[-1]] & ~seen
            if not untried:
                stack.pop()
                continue
            v = (untried & -untried).bit_length() - 1
            seen |= 1 << v
            if v not in match_r:
                for u in reversed(stack):
                    match_l[u], v = v, match_l.get(u)
                    match_r[match_l[u]] = u
                break
            stack.append(match_r[v])
    return match_l


def count_chains_of_size(P: Poset, m: int) -> int:
    """Exact number of m-element chains.

    With a witness these are the witness's increasing m-subsequences, counted
    by the ``monoseq.counting`` kernel.  Without one, a sweep in a linear
    extension gives each x its t-chains with maximum x, t = 1..m-1, in slot
    t - 1 of ``bits`` bits: its ``below`` row's slots summed, moved up one,
    plus 1.  A slot sum counts chains of at most m elements, at most
    C(n, min(m - 1, n // 2)) < 2**bits, so no slot carries.  Each m-chain is
    counted once, at its second-largest member x, as an (m - 1)-chain with
    maximum x times the elements above x.
    """
    if m < 1:
        raise ValidationError("chain size must be >= 1")
    if P.witness is not None:
        return count_increasing_exact(P.witness, m)
    if m > P.n:
        return 0
    if m == 1:
        return P.n
    bits = comb(P.n, min(m - 1, P.n // 2)).bit_length()
    full = (1 << (m - 1) * bits) - 1
    below = P.below
    counts = [0] * P.n
    for x in _linear_extension(P):
        total = 0
        for j in iter_bits(below[x]):
            total += counts[j]
        counts[x] = (total << bits | 1) & full
    return sum((c >> (m - 2) * bits) * up.bit_count() for c, up in zip(counts, P.above))


def count_chains_through(P: Poset, m: int, anchor: int) -> int:
    """Exact number of m-element chains containing the anchor element: the
    m-chains of P that P minus the anchor lacks."""
    if not 0 <= anchor < P.n:
        raise ValidationError("anchor out of range")
    return count_chains_of_size(P, m) - count_chains_of_size(P.delete([anchor]), m)


def count_antichains_of_size(P: Poset, m: int) -> int:
    """Exact number of m-element antichains.

    With a witness these are the witness's decreasing m-subsequences, counted
    by the ``monoseq.counting`` kernel on the witness's values read backwards.
    Without one it is a budgeted backtracking count over independent sets of
    the comparability graph, since the general problem blows up.  m = 2 is
    C(n, 2) minus the comparable pairs, and m >= 3 backtracks down to entries
    with three members left, whose candidates S give their 3-antichains by
    the inclusion-exclusion pass of the module docstring.

    One budget node is one antichain of 1 to m - 1 elements reached on the
    way; an entry adds all its children to the node count at once, so an
    exceeded budget may report the total at the end of that batch.  The node
    totals are those of backtracking down to the last member: an entry with
    c candidates and ``left`` members to go has c - left + 1 children.  A
    left = 3 entry therefore spends r - 2 nodes plus, for each v in S, the
    max(0, |lower[v] & S| - 1) nodes of the left = 2 child that chooses v,
    whose candidates are exactly lower[v] & S since lower[v] holds only ids
    below v.
    """
    if m < 1:
        raise ValidationError("antichain size must be >= 1")
    if P.witness is not None:
        return count_decreasing_exact(P.witness, m)
    n = P.n
    if m == 1:
        return n
    if m == 2:
        _spend_antichain_nodes(n - 1)
        return n * (n - 1) // 2 - sum(mask.bit_count() for mask in P.below)
    # lower[i]: the ids below i that are incomparable with i.  Sets are built
    # from the highest id down: choosing i leaves the candidates in lower[i].
    # An entry with c candidates and left ids still needed chooses each of
    # its c - left + 1 highest candidates in turn, since fewer than left
    # candidates cannot finish a set.
    above, below = P.above, P.below
    lower = [((1 << i) - 1) & ~(above[i] | below[i]) for i in range(n)]
    nodes = 0
    total = 0
    stack = [((1 << n) - 1, m)]
    while stack:
        cand, left = stack.pop()
        c = cand.bit_count() - left + 1
        if c <= 0:
            continue
        if left == 3:
            triples, below_nodes = _antichain_triples(cand, above, below, lower)
            total += triples
            nodes = _spend_antichain_nodes(nodes + c + below_nodes)
            continue
        nodes = _spend_antichain_nodes(nodes + c)
        for _ in range(c):
            i = cand.bit_length() - 1
            cand ^= 1 << i
            stack.append((lower[i] & cand, left - 1))
    return total


def _spend_antichain_nodes(nodes: int) -> int:
    """The running node total, or BudgetExceededError once it passes the budget."""
    if nodes > ANTICHAIN_NODE_BUDGET:
        raise BudgetExceededError(
            "antichain enumeration exceeded its node budget",
            needed=nodes,
            budget=ANTICHAIN_NODE_BUDGET,
        )
    return nodes


def _antichain_triples(S: int, above, below, lower) -> tuple[int, int]:
    """The 3-antichains inside the id set S, and the nodes below a left = 3 entry.

    One pass over S sums the module docstring's terms; the node term is
    the sum over v of max(0, |lower[v] & S| - 1).
    """
    r = S.bit_count()
    sum_d = 0
    pairs_d = 0
    chains = 0
    nodes = 0
    rest = S
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        a = (above[v] & S).bit_count()
        b = (below[v] & S).bit_count()
        d = a + b
        sum_d += d
        pairs_d += d * (d - 1) // 2
        chains += a * b
        lo = (lower[v] & S).bit_count()
        if lo:
            nodes += lo - 1
    return r * (r - 1) * (r - 2) // 6 - (r - 2) * sum_d // 2 + pairs_d - chains, nodes


def h_k(P: Poset, k: int) -> int:
    """Number of homogenous (k+1)-sets: chains plus antichains of size k+1.

    With a witness these are its monotone (k+1)-subsequences, which
    ``count_monotone`` counts, both kinds in one pass for k <= 2.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if P.witness is not None:
        return count_monotone(P.witness, k).total
    return count_chains_of_size(P, k + 1) + count_antichains_of_size(P, k + 1)


def surplus(P: Poset, k: int) -> int:
    """n - height*k, the distance from a k-chain decomposition."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    return P.n - height(P) * k
