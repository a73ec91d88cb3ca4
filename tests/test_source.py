import ast
from pathlib import Path

import monoseq


def test_no_assert_statements():
    # python -O strips assert statements, so a check that guards a result
    # must raise AssertionError explicitly.
    found = []
    for path in sorted(Path(monoseq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
