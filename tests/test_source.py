"""Checks on the program's source text."""

import ast
from pathlib import Path

import dezaforge

PACKAGE = Path(dezaforge.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so none may carry a correctness check
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
