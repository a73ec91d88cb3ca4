"""Replay a fixed corpus of CLI invocations and check byte-identical output.

tests/data/cli_corpus.json holds, for each invocation, its argv, stdin and
MONOSEQ_* environment with the stdout, stderr and exit code it gave when
recorded.  A refactor must leave every entry unchanged.  A change that
alters CLI output on purpose re-records the corpus with

    PYTHONPATH=src python tests/test_cli_corpus.py

and says which entries moved and why.
"""

import functools
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest

from monoseq.cli import dispatch

CORPUS = Path(__file__).parent / "data" / "cli_corpus.json"

_SIGMA_3_1 = json.dumps(
    {
        "n": 13,
        "relation": [[1, 3], [2, 3], [2, 7], [3, 4], [4, 5], [6, 7], [6, 11], [7, 8], [8, 9],
                     [10, 11], [11, 12], [12, 13]],
        "witness": [10, 6, 11, 12, 13, 2, 7, 8, 9, 1, 3, 4, 5],
    }
)
_SIGMA_3_2 = "10 6 11 12 13 3 7 8 9 1 2 4 5"
_TAU_3_13 = json.dumps(
    {
        "n": 13,
        "relation": [[1, 2], [2, 3], [3, 4], [4, 5], [6, 7], [7, 8], [8, 9], [10, 11], [11, 12],
                     [12, 13]],
        "witness": [9, 10, 11, 12, 13, 5, 6, 7, 8, 1, 2, 3, 4],
    }
)
# A witness-free order: a 2+2 with one extra cover and an isolated element.
_DAG = '{"n": 6, "relation": [[1, 3], [2, 4], [1, 4], [4, 5]]}'
# Two witness-free orders on shuffled ids (cover pairs of random DAGs), large
# enough that h_k for k = 3..5 reaches antichain entries below the root.
_DAG_16 = json.dumps(
    {
        "n": 16,
        "relation": [[1, 14], [1, 15], [3, 11], [3, 13], [4, 9], [5, 15], [5, 16], [6, 16],
                     [7, 1], [7, 6], [8, 4], [8, 10], [10, 9], [11, 10], [12, 5], [13, 10],
                     [14, 9], [14, 16], [15, 13]],
    }
)
_DAG_22 = json.dumps(
    {
        "n": 22,
        "relation": [[1, 12], [1, 15], [1, 17], [5, 17], [7, 10], [7, 11], [7, 15], [8, 3],
                     [8, 6], [9, 21], [10, 16], [12, 10], [12, 18], [12, 21], [13, 4], [13, 11],
                     [13, 20], [14, 6], [15, 22], [17, 2], [17, 8], [17, 10], [19, 2], [19, 9],
                     [19, 13], [19, 14], [22, 9]],
    }
)
# The two sigma(3, v) orders without their witness, on shuffled ids.
_SIGMA_3_1_DAG = (
    '{"n": 13, "relation": [[1, 9], [2, 8], [2, 12], [3, 5], [4, 10], [6, 7], [8, 3], [10, 6],'
    ' [11, 8], [12, 1], [13, 10], [13, 12]]}'
)
_SIGMA_3_2_DAG = (
    '{"n": 13, "relation": [[2, 8], [4, 9], [5, 6], [6, 10], [8, 3], [9, 7], [10, 1], [11, 4],'
    ' [11, 8], [12, 4], [12, 6], [13, 2]]}'
)
# Two 40-element witness-free orders on shuffled ids (their cover pairs): a
# layered order of alternating level sizes 3 and 2 with one or two lower
# covers per element, and a random DAG.  Both run the matching, the chain
# counts and the anchored chain count through the CLI.
_LAYERED_40 = json.dumps(
    {
        "n": 40,
        "relation": [[1, 11], [2, 37], [3, 19], [3, 27], [4, 18], [4, 20], [4, 35], [5, 8],
                     [5, 14], [5, 32], [6, 12], [9, 22], [11, 7], [11, 39], [12, 33], [13, 9],
                     [14, 4], [14, 26], [15, 13], [15, 28], [20, 30], [21, 10], [21, 17],
                     [22, 3], [23, 11], [24, 21], [25, 36], [26, 18], [26, 35], [28, 24],
                     [28, 29], [29, 21], [30, 15], [33, 5], [34, 31], [34, 38], [35, 34],
                     [36, 1], [36, 23], [37, 1], [37, 6], [37, 23], [38, 28], [39, 40],
                     [40, 8], [40, 14]],
    }
)
_DAG_40 = json.dumps(
    {
        "n": 40,
        "relation": [[1, 5], [1, 13], [2, 16], [4, 2], [4, 36], [6, 23], [7, 16], [9, 15],
                     [10, 6], [10, 24], [10, 38], [12, 22], [13, 8], [14, 30], [16, 8], [18, 7],
                     [18, 19], [19, 3], [20, 1], [20, 19], [20, 25], [20, 37], [22, 2],
                     [22, 28], [27, 30], [28, 16], [29, 23], [29, 40], [31, 38], [32, 5],
                     [32, 12], [32, 21], [32, 26], [33, 6], [33, 16], [33, 30], [34, 4],
                     [34, 19], [34, 21], [34, 37], [35, 1], [36, 14], [37, 22], [38, 2],
                     [38, 3], [39, 1], [40, 31], [40, 32], [40, 36]],
    }
)
# A witness-free 300-chain on shuffled ids (its t-th element is id 1 + 97t mod
# 300) and a 60-element random DAG (its cover pairs), both through the
# witness-free level sweep.
_CHAIN_300 = json.dumps(
    {"n": 300, "relation": [[1 + 97 * t % 300, 1 + 97 * (t + 1) % 300] for t in range(299)]}
)
_DAG_60 = json.dumps(
    {
        "n": 60,
        "relation": [[1, 10], [2, 23], [2, 58], [4, 9], [4, 19], [5, 4], [5, 60], [8, 3], [9, 31],
                     [9, 52], [11, 31], [12, 10], [13, 4], [14, 15], [14, 25], [14, 35], [16, 50],
                     [18, 33], [18, 42], [21, 1], [21, 5], [21, 12], [23, 9], [23, 22], [24, 12],
                     [24, 15], [25, 30], [26, 10], [28, 11], [28, 37], [28, 52], [29, 22], [32, 8],
                     [32, 40], [32, 42], [32, 50], [33, 12], [33, 19], [33, 43], [33, 46],
                     [33, 57], [34, 15], [34, 35], [34, 57], [35, 4], [35, 10], [36, 5], [36, 37],
                     [38, 6], [39, 34], [39, 46], [39, 59], [40, 2], [40, 20], [40, 37], [41, 10],
                     [42, 11], [44, 16], [44, 28], [45, 50], [46, 50], [47, 8], [47, 34], [48, 17],
                     [48, 33], [48, 36], [48, 54], [49, 12], [49, 37], [49, 60], [50, 20],
                     [50, 52], [51, 55], [53, 9], [53, 18], [53, 44], [54, 41], [55, 17], [55, 21],
                     [55, 22], [55, 26], [55, 30], [55, 56], [56, 11], [56, 33], [58, 9], [58, 22],
                     [58, 27], [59, 12], [59, 22], [60, 16], [60, 41], [60, 57]],
    }
)
# Anchors through which few maximum chains pass, so the check reaches its
# anchored (k+1)-chain count.
_ANCHORED_LAYERED_40 = f'{{"poset": {_LAYERED_40}, "k": 15, "ell": 1, "anchor": 5}}'
_ANCHORED_DAG_40 = f'{{"poset": {_DAG_40}, "k": 7, "ell": 1, "anchor": 2}}'
# One 24-set with b = 12: C(24, 12) = 2,704,156 subsets, over counting.SUBSET_BUDGET.
_SHADOW_24 = json.dumps({"ground_size": 24, "members": [list(range(24))], "b": 12})
_CHAIN_10 = {
    "n": 10,
    "relation": [[i, i + 1] for i in range(1, 10)],
    "witness": list(range(1, 11)),
}
# A witnessed random 30-permutation of height 10 (random.Random(1)), its
# relation every increasing pair; two of its maximum chains pass through
# element 13, so k = 8, ell = 2 meets the preconditions and reaches the
# anchored 9-chain count.
_PERM_30 = [27, 17, 12, 11, 24, 2, 6, 30, 8, 21, 10, 29, 18, 14, 1, 20, 23, 7, 13, 22, 15, 16, 4,
            9, 3, 25, 26, 28, 19, 5]
_ANCHORED_PERM_30 = json.dumps(
    {
        "poset": {
            "n": 30,
            "relation": [
                [i + 1, j + 1] for i, j in combinations(range(30), 2) if _PERM_30[i] < _PERM_30[j]
            ],
            "witness": _PERM_30,
        },
        "k": 8,
        "ell": 2,
        "anchor": 13,
    }
)
# The two sigma(4, v) orders without their witness, element t relabelled 8t mod 21.
_SIGMA_4_1_DAG = json.dumps(
    {
        "n": 21,
        "relation": [[1, 17], [2, 10], [3, 11], [4, 12], [5, 11], [5, 13], [6, 14], [7, 13],
                     [7, 15], [8, 16], [9, 15], [9, 17], [10, 18], [11, 19], [12, 20], [13, 21],
                     [15, 2], [17, 4], [19, 6], [21, 8]],
    }
)
_SIGMA_4_2_DAG = json.dumps(
    {
        "n": 21,
        "relation": [[1, 17], [2, 10], [3, 11], [4, 12], [5, 13], [5, 19], [6, 14], [7, 13],
                     [7, 15], [8, 16], [9, 15], [9, 17], [10, 18], [11, 19], [12, 20], [13, 21],
                     [15, 2], [17, 4], [19, 6], [21, 8]],
    }
)

# (argv, stdin, environment) for every recorded invocation.
CASES = [
    (["count", "--k", "3"], _SIGMA_3_2, {}),
    (["count", "--k", "2", "--oracle", "--profile", "3"], "2 1 4 3", {}),
    (["count", "--k", "2"], '{"n": 5, "values": [3, 1, 5, 2, 4]}', {}),
    (["count", "--k", "2"], "1 1 2", {}),
    (["count", "--k", "10", "--oracle"], " ".join(map(str, range(40, 0, -1))), {}),
    (["construct", "tau", "--k", "3", "--n", "13"], "", {}),
    (["construct", "sigma", "--k", "3", "--variant", "2", "--json"], "", {}),
    (["construct", "tau", "--k", "3"], "", {}),
    (["formula", "--k", "3", "--n", "13"], "", {}),
    (["formula", "--k", "3", "--n", "9"], "", {}),
    (["poset", "decompose", "--k", "3"], _SIGMA_3_1, {}),
    (["poset", "decompose"], _DAG, {}),
    (["poset", "hk", "--k", "3"], _TAU_3_13, {}),
    (["poset", "hk", "--k", "2"], _DAG, {}),
    (["poset", "hk"], _DAG, {}),
    (["poset", "surplus", "--k", "3"], _TAU_3_13, {}),
    (
        ["poset", "prune", "--k", "2", "--t", "1"],
        '{"n": 3, "relation": [[1, 2], [2, 3]], "witness": [1, 2, 3]}',
        {},
    ),
    (["poset", "prune", "--t", "2"], _DAG, {}),
    (["poset", "verify-example", "--k", "3"], _SIGMA_3_1, {}),
    (["lemma", "shadow"], '{"ground_size": 4, "members": [[0, 1], [2, 3]], "b": 1}', {}),
    (["lemma", "signatures"], '{"domain": [0, 1], "rows": [[1, "a"], [2, "b"]]}', {}),
    (["lemma", "connected"], '{"t": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]], "c": 3}', {}),
    (["lemma", "signature-bound"], json.dumps({"poset": _CHAIN_10, "k": 8, "ell": 2}), {}),
    (
        ["lemma", "signature-bound"],
        '{"poset": {"n": 4, "relation": [[1, 2], [2, 4], [3, 4]], "witness": [2, 3, 1, 4]},'
        ' "k": 2, "ell": 1, "anchor": 3}',
        {},
    ),
    (
        ["lemma", "surplus-bound"],
        '{"poset": {"n": 3, "relation": [], "witness": [3, 2, 1]}, "k": 2, "t": 1}',
        {},
    ),
    (["lemma", "surplus-bound"], json.dumps({"poset": _CHAIN_10, "k": 8, "t": 50}), {}),
    (["search", "exhaustive", "--n", "4", "--k", "1"], "", {}),
    (["search", "exhaustive", "--n", "5", "--k", "2"], "", {}),
    (["search", "exhaustive", "--n", "6", "--k", "2"], "", {}),
    (["search", "exhaustive", "--n", "7", "--k", "2"], "", {}),
    (["search", "exhaustive", "--n", "8", "--k", "2"], "", {}),
    (["search", "exhaustive", "--n", "7", "--k", "3"], "", {}),
    (["search", "exhaustive", "--n", "8", "--k", "3"], "", {}),
    (["search", "exhaustive", "--n", "6", "--k", "2", "--format", "csv"], "", {}),
    (["--workers", "2", "search", "exhaustive", "--n", "7", "--k", "2"], "", {}),
    (["search", "posets", "--n", "4", "--k", "1"], "", {}),
    (["search", "posets", "--n", "5", "--k", "2"], "", {}),
    (["search", "posets", "--n", "6", "--k", "2"], "", {}),
    (["search", "posets", "--n", "7", "--k", "2"], "", {}),
    (["search", "posets", "--n", "7", "--k", "3"], "", {}),
    (["search", "heuristic", "--n", "13", "--k", "3", "--trials", "2", "--seed", "5"], "", {}),
    (["--budget", "10", "search", "exhaustive", "--n", "8", "--k", "2"], "", {}),
    (["search", "exhaustive", "--n", "8", "--k", "2"], "", {"MONOSEQ_BUDGET": "10"}),
    (["search", "exhaustive", "--n", "12", "--k", "2"], "", {}),
    (["search", "posets", "--n", "10", "--k", "2"], "", {}),
    (["repro", "--quick"], "", {}),
    (["no-such-command"], "", {}),
    *(
        (["poset", "hk", "--k", str(k)], dag, {})
        for dag in (_DAG_16, _DAG_22)
        for k in (2, 3, 4, 5)
    ),
    (["poset", "verify-example", "--k", "3"], _SIGMA_3_1_DAG, {}),
    (["poset", "verify-example", "--k", "3"], _SIGMA_3_2_DAG, {}),
    (["count", "--k", "0"], "2 1 3", {}),
    (["formula", "--k", "0", "--n", "5"], "", {}),
    (["formula", "--k", "200000", "--n", "40000000001"], "", {}),
    (["lemma", "shadow"], _SHADOW_24, {}),
    *(
        (["poset", action, *flags], order, {})
        for order in (_LAYERED_40, _DAG_40)
        for action, *flags in (("decompose",), ("hk", "--k", "3"), ("hk", "--k", "5"))
    ),
    (["lemma", "signature-bound"], _ANCHORED_LAYERED_40, {}),
    (["lemma", "signature-bound"], _ANCHORED_DAG_40, {}),
    (["search", "posets", "--n", "8", "--k", "2"], "", {}),
    (["search", "posets", "--n", "9", "--k", "3"], "", {}),
    *(
        (["poset", *action], order, {})
        for order in (_CHAIN_300, _DAG_60)
        for action in (["decompose"], ["surplus", "--k", "3"])
    ),
    (
        ["lemma", "signature-bound"],
        json.dumps({"poset": _CHAIN_10, "k": 8, "ell": 2, "anchor": 5}),
        {},
    ),
    (["lemma", "signature-bound"], _ANCHORED_PERM_30, {}),
    (["poset", "verify-example", "--k", "4"], _SIGMA_4_1_DAG, {}),
    (["poset", "verify-example", "--k", "4"], _SIGMA_4_2_DAG, {}),
]


def run(argv, stdin_text, env):
    """One in-process dispatch with only the given MONOSEQ_* variables set.

    COLUMNS is pinned because argparse wraps its usage text to it."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), mock.patch.object(sys, "stdin", io.StringIO(stdin_text)):
        for name in ("MONOSEQ_WORKERS", "MONOSEQ_BUDGET"):
            os.environ.pop(name, None)
        os.environ.update(env, COLUMNS="80")
        with redirect_stdout(out), redirect_stderr(err):
            code = dispatch(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def _recorded():
    return json.loads(CORPUS.read_text())


# Inputs named in the test id, so entries that share an argv keep distinct ids.
_INPUT_NAMES = {
    _DAG_16: "dag16",
    _DAG_22: "dag22",
    _SIGMA_3_1_DAG: "sigma31-dag",
    _SIGMA_3_2_DAG: "sigma32-dag",
    _SHADOW_24: "shadow24",
    _LAYERED_40: "layered40",
    _DAG_40: "dag40",
    _ANCHORED_LAYERED_40: "anchored-layered40",
    _ANCHORED_DAG_40: "anchored-dag40",
    _CHAIN_300: "chain300",
    _DAG_60: "dag60",
    _ANCHORED_PERM_30: "anchored-perm30",
    _SIGMA_4_1_DAG: "sigma41-dag",
    _SIGMA_4_2_DAG: "sigma42-dag",
}


def _case_id(i):
    argv, stdin_text, _ = CASES[i]
    name = _INPUT_NAMES.get(stdin_text)
    return " ".join(argv) + (f" < {name}" if name else "")


@pytest.mark.parametrize("i", range(len(CASES)), ids=_case_id)
def test_corpus_entry_is_reproduced(i):
    argv, stdin_text, env = CASES[i]
    entry = _recorded()[i]
    assert (entry["argv"], entry["stdin"], entry["env"]) == (argv, stdin_text, env)
    assert run(argv, stdin_text, env) == {key: entry[key] for key in ("code", "stdout", "stderr")}


def record() -> None:
    entries = [
        {"argv": argv, "stdin": stdin_text, "env": env, **run(argv, stdin_text, env)}
        for argv, stdin_text, env in CASES
    ]
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    record()
