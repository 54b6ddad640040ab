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


def test_square_has_one_definition():
    # A^2 is formed only by Graph.square, which keeps it; an exact_matmul of
    # an expression with itself anywhere else would form it again
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Graph":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "square":
                        allowed |= {id(n) for n in ast.walk(item)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "exact_matmul"
            and len(node.args) == 2
            and ast.dump(node.args[0]) == ast.dump(node.args[1])
            and id(node) not in allowed
        ]
    assert found == []
