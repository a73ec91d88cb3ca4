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


@pytest.fixture
def default_recursion_limit():
    """Run the test from CPython's default recursion limit and restore the old one after."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield 1000
    sys.setrecursionlimit(saved)
