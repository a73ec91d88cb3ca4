"""Height-reducing cuts and the two-step pruning procedure.

A height-reducing set is a set of elements meeting every maximum-length
chain; deleting a minimum one lowers the height by exactly one.  It is
the minimum cut of one Dinic max flow on the vertex-split graph of
the elements on some maximum chain, whose vertex costs encode the
lexicographic tie-break; the cut is read off the residual graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import InvariantError, ValidationError
from .decomposition import decompose
from .posets import Poset, dual, height, width


class _FlowNet:
    """Flow network; ``max_flow`` is Dinic's (per BFS level graph, a
    blocking flow of shortest augmenting paths, each augmented by its
    bottleneck), exact for any capacities."""

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

    def max_flow(self, s: int, t: int) -> tuple[int, list[bool]]:
        """Maximum s-t flow, and the source side of a minimum cut: what the
        last BFS, which fails to reach t, reaches from s.

        Each phase levels the residual graph by BFS distance from s, up to
        t's, then augments shortest paths found by an iterative DFS along
        edges one level up until none is left.  ``nxt[u]`` skips the edges
        of u already found saturated or leading to a dead end, so each edge
        is passed over at most once per phase; a chain as high as
        ``POSET_MAX_N`` needs no recursion.
        """
        flow = 0
        to, cap, adj = self.to, self.cap, self.adj
        while True:
            level = [-1] * self.size
            level[s] = 0
            queue = deque([s])
            while queue and level[t] < 0:
                u = queue.popleft()
                for eid in adj[u]:
                    v = to[eid]
                    if cap[eid] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow, [lv >= 0 for lv in level]
            nxt = [0] * self.size
            path: list[int] = []  # edge ids of the s-u path in the level graph
            u = s
            while True:
                if u == t:
                    push = min(cap[eid] for eid in path)
                    for eid in path:
                        cap[eid] -= push
                        cap[eid ^ 1] += push
                    flow += push
                    path.clear()
                    u = s
                edges, i = adj[u], nxt[u]
                while i < len(edges):
                    eid = edges[i]
                    if cap[eid] > 0 and level[to[eid]] == level[u] + 1:
                        break
                    i += 1
                nxt[u] = i
                if i < len(edges):
                    path.append(eid)
                    u = to[eid]
                elif u == s:
                    break
                else:
                    u = to[path.pop() ^ 1]
                    nxt[u] += 1


def min_height_reducing_set(P: Poset) -> list[int]:
    """Lexicographically least minimum set meeting every maximum chain.

    Deleting it drops the height by exactly one.  The maximum chains are
    the source-sink paths of the vertex-split network on decompose(P).a_prime
    with edges along decompose(P).hasse.  The member of rank r (ascending
    id, m members) costs 2^m - 2^(m-1-r); other edges cost more than all
    members together.  A cut C costs |C| * 2^m minus a saving below 2^m, so
    a smaller cut costs less; among cuts of one size, the least element of
    two cuts' symmetric difference decides both the saving and the
    lexicographic order.  Distinct sets save distinct amounts, so the
    minimum cut is unique and is that set.
    """
    if height(P) < 1:
        raise ValidationError("height-reducing set undefined for an empty poset")
    dec = decompose(P)
    members = sorted(x for lvl in dec.a_prime for x in lvl)
    idx = {x: r for r, x in enumerate(members)}
    m = len(members)
    cost = [(1 << m) - (1 << (m - 1 - r)) for r in range(m)]
    src, sink = 2 * m, 2 * m + 1
    inf = (m + 1) << m
    net = _FlowNet(2 * m + 2)
    for r in range(m):
        net.add_edge(2 * r, 2 * r + 1, cost[r])
    for x in dec.a_prime[0]:
        net.add_edge(src, 2 * idx[x], inf)
    for x in dec.a_prime[-1]:
        net.add_edge(2 * idx[x] + 1, sink, inf)
    for edges in dec.hasse:
        for x, y in edges:
            if x in idx and y in idx:
                net.add_edge(2 * idx[x] + 1, 2 * idx[y], inf)
    flow, source_side = net.max_flow(src, sink)
    cut = [r for r in range(m) if source_side[2 * r] and not source_side[2 * r + 1]]
    if sum(cost[r] for r in cut) != flow:
        raise InvariantError("minimum cut does not match the max flow")
    return [members[r] for r in cut]


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
    scopes the run and is checked like every other poset action's k; the
    procedure itself does not depend on it.
    """
    if P.witness is None and P.n > 0:
        raise ValidationError("prune requires an order-dimension-2 witness")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if t < 1:
        raise ValidationError("t must be >= 1")
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
