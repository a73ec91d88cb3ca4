import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import monoseq


def test_no_assert_statements():
    # python -O strips assert statements, so a check that guards a result
    # must raise InvariantError explicitly, not the AssertionError that a
    # failing test raises.
    found = []
    for path in sorted(Path(monoseq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_recursion_limit_changes():
    # The recursion limit is process-wide, so src/ keeps its searches iterative.
    found = [
        path.name
        for path in sorted(Path(monoseq.__file__).parent.glob("*.py"))
        if "setrecursionlimit" in path.read_text()
    ]
    assert not found, found


def _self_recursive_functions(tree: ast.AST, scope: str = "") -> list[str]:
    """Dotted names of the functions under tree that call themselves by name."""
    found = []
    for node in ast.iter_child_nodes(tree):
        name = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        ):
            found.append(name)
        found += _self_recursive_functions(node, name)
    return found


def test_no_new_recursion():
    # CPython's default recursion limit (1000) caps any recursion by input
    # size, so src/ recurses only where the depth is at most n and n is
    # capped: the permutation DFS by search.EXHAUSTIVE_MAX_N and the poset
    # enumerator by Budgets.poset_enum_max_n.
    found = [
        f"{path.stem}.{name}"
        for path in sorted(Path(monoseq.__file__).parent.glob("*.py"))
        for name in _self_recursive_functions(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == ["search._search_task.dfs", "search.min_hk_over_posets.rec"], found


_IMPORTS_SCRIPT = """
import json, sys
import monoseq, monoseq.cli
from monoseq.search import exhaustive_min
heavy = ("concurrent.futures", "multiprocessing", "graphlib")
on_import = [m for m in heavy if m in sys.modules]
same = exhaustive_min(6, 2, workers=2) == exhaustive_min(6, 2, workers=1)
print(json.dumps([on_import, same, "concurrent.futures.process" in sys.modules]))
"""


def test_process_pool_is_imported_on_the_first_parallel_run():
    # Every CLI call and benchmark process imports the package, so the
    # modules behind the process pool load only when a search runs on
    # more than one worker.  A fresh interpreter sees no test imports.
    env = {**os.environ, "PYTHONPATH": str(Path(monoseq.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_SCRIPT], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    on_import, same, pool_loaded = json.loads(proc.stdout)
    assert on_import == []
    assert same
    assert pool_loaded
