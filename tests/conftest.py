import random
import sys
from itertools import combinations

import pytest
from hypothesis import strategies as st

from monoseq.perms import Permutation
from monoseq.posets import poset_from_relation


@st.composite
def permutations_st(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    values = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(tuple(values))


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_permutation(rng, n):
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return Permutation(tuple(vals))


def random_dag(rng, n):
    """A witness-free order on ids 0..n-1: each pair i < j is related with one random density."""
    p = rng.random()
    return poset_from_relation(
        n, [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]
    )


def list_matching(adjacency):
    """Reference maximum matching over adjacency lists, left -> right.

    The augmenting-path search that ``posets.max_bipartite_matching_pairs``
    runs on bitmask rows, kept here on lists: one search per left vertex in
    ascending order, each neighbour list walked by its own iterator.
    """
    match_l, match_r = {}, {}
    for root in sorted(adjacency):
        stack = [(root, iter(adjacency[root]))]
        rights = []  # rights[t] is adjacent to stack[t], matched to stack[t + 1]
        seen = set()
        while stack:
            for v in stack[-1][1]:
                if v not in seen:
                    break
            else:
                stack.pop()
                if rights:
                    rights.pop()
                continue
            seen.add(v)
            rights.append(v)
            w = match_r.get(v)
            if w is None:
                for (u, _), x in zip(stack, rights):
                    match_l[u] = x
                    match_r[x] = u
                break
            stack.append((w, iter(adjacency[w])))
    return match_l


@pytest.fixture
def default_recursion_limit():
    """Run the test from CPython's default recursion limit and restore the old one after."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield 1000
    sys.setrecursionlimit(saved)
