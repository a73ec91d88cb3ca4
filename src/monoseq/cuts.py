"""Height-reducing cuts and the two-step pruning procedure.

A height-reducing set is a set of elements meeting every maximum-length
chain; deleting a minimum one lowers the height by exactly one.  The
minimum cut is found by max flow on the vertex-split graph of elements
that lie on some maximum chain, as a count of unit augmenting paths found
by breadth-first search, and made deterministic by greedily committing
the lowest-indexed element that still admits a minimum cut through it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import InvariantError, ValidationError
from .decomposition import decompose
from .posets import Poset, dual, height, width


class _FlowNet:
    """Flow network with unit and infinite edge capacities.

    ``max_flow`` augments along BFS shortest paths one unit at a time, which
    is exact only when every s-t path of the residual graph has bottleneck
    1.  The vertex-split networks built here are layered (source, then in-
    and out-copies level by level, then sink), and the only edges between
    an in-copy and its out-copy are the unit vertex edges, so every such
    path crosses one.
    """

    def __init__(self, size: int):
        self.size = size
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(size)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            via = [-1] * self.size  # via[v] = edge id that first reached v
            queue = deque([s])
            while queue and via[t] < 0:
                u = queue.popleft()
                for eid in self.adj[u]:
                    v = self.to[eid]
                    if self.cap[eid] > 0 and via[v] < 0 and v != s:
                        via[v] = eid
                        queue.append(v)
            if via[t] < 0:
                return flow
            v = t
            while v != s:
                eid = via[v]
                self.cap[eid] -= 1
                self.cap[eid ^ 1] += 1
                v = self.to[eid ^ 1]
            flow += 1


def _min_cut_size(P: Poset, removed: frozenset[int]) -> int:
    """Minimum number of elements (outside `removed`) meeting every maximum chain.

    P must have height >= 1.  The elements on some maximum chain are
    decompose(P).a_prime, and a maximum chain steps only along
    decompose(P).hasse, between consecutive levels.
    """
    dec = decompose(P)
    members = [x for lvl in dec.a_prime for x in lvl if x not in removed]
    idx = {x: t for t, x in enumerate(members)}
    m = len(members)
    src, sink = 2 * m, 2 * m + 1
    net = _FlowNet(2 * m + 2)
    INF = 1 << 60
    for t in range(m):
        net.add_edge(2 * t, 2 * t + 1, 1)
    for x in dec.a_prime[0]:
        if x in idx:
            net.add_edge(src, 2 * idx[x], INF)
    for x in dec.a_prime[-1]:
        if x in idx:
            net.add_edge(2 * idx[x] + 1, sink, INF)
    for edges in dec.hasse:
        for x, y in edges:
            if x in idx and y in idx:
                net.add_edge(2 * idx[x] + 1, 2 * idx[y], INF)
    return net.max_flow(src, sink)


def min_height_reducing_set(P: Poset) -> list[int]:
    """Lexicographically least minimum set whose deletion reduces the height.

    Computed by max flow over the maximum-chain elements, then committing
    elements in ascending id order whenever a minimum cut still exists
    through them.  Every maximum chain meets the result, so deletion drops
    the height by exactly one.
    """
    if height(P) < 1:
        raise ValidationError("height-reducing set undefined for an empty poset")
    target = _min_cut_size(P, frozenset())
    chosen: list[int] = []
    removed: set[int] = set()
    remaining = target
    for x in sorted(x for lvl in decompose(P).a_prime for x in lvl):
        if remaining == 0:
            break
        trial = frozenset(removed | {x})
        if _min_cut_size(P, trial) == remaining - 1:
            chosen.append(x)
            removed.add(x)
            remaining -= 1
    if len(chosen) != target:
        raise InvariantError("greedy cut extraction failed")
    return chosen


@dataclass(frozen=True)
class PruneRound:
    removed: Optional[tuple[int, ...]]  # 0-based ids in the labeling current at that round
    flipped: bool
    size_after: int
    height_after: int
    width_after: int


@dataclass(frozen=True)
class PruneResult:
    poset: Poset
    rounds: list[PruneRound]

    def to_json_dict(self) -> dict:
        """Removed ids are 1-based, like every other poset id in JSON."""
        return {
            "final": self.poset.to_json_dict(),
            "rounds": [
                {
                    "removed": None if r.removed is None else [x + 1 for x in r.removed],
                    "flipped": r.flipped,
                    "size_after": r.size_after,
                    "height_after": r.height_after,
                    "width_after": r.width_after,
                }
                for r in self.rounds
            ],
        }


def prune(P: Poset, k: int, t: int) -> PruneResult:
    """Repeat: delete a minimum height-reducing set of size <= t, then flip
    to the dual if the height fell below the width; stop at a fixpoint or
    the empty poset.

    Needs a witness because the flip takes duals.  Removed ids are recorded
    in the labeling current at each round (deletions relabel).  ``k`` only
    scopes the run; the procedure itself does not depend on it.
    """
    if P.witness is None and P.n > 0:
        raise ValidationError("prune requires an order-dimension-2 witness")
    if t < 1:
        raise ValidationError("t must be >= 1")
    _ = k
    rounds: list[PruneRound] = []
    current = P
    while current.n > 0:
        removed: Optional[tuple[int, ...]] = None
        flipped = False
        cut = min_height_reducing_set(current)
        if len(cut) <= t:
            removed = tuple(cut)
            current = current.delete(cut)
        if height(current) < width(current):
            current = dual(current)
            flipped = True
        if removed is None and not flipped:
            break
        rounds.append(
            PruneRound(
                removed=removed,
                flipped=flipped,
                size_after=current.n,
                height_after=height(current),
                width_after=width(current),
            )
        )
    return PruneResult(poset=current, rounds=rounds)
