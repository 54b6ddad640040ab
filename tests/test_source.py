"""Checks on the program's source text."""

import ast
import re
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


def _readme_spans():
    """The backtick spans of the README outside its fenced blocks, read one
    line at a time, so that no fence shifts the pairing of backticks; a
    trailing "()" is dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    spans, fenced = set(), False
    for line in readme.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            spans |= {span.removesuffix("()") for span in re.findall(r"`([^`]+)`", line)}
    return spans


def test_every_public_name_is_used():
    # each public function, class and method must be referenced in the
    # package outside its own definition (import lines hold no Name nodes),
    # or be named in backticks in the README; a method counts as referenced
    # only through an attribute, as a bare name of the same spelling is some
    # other binding; cli.main is exempt as the console-script entry point
    # that pyproject.toml names
    documented = _readme_spans()
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    uses = [
        (
            node.id if isinstance(node, ast.Name) else node.attr,
            id(node),
            isinstance(node, ast.Attribute),
        )
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{module}.{node.name}", node, False))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (f"{module}.{node.name}.{item.name}", item, True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    unused = []
    for qualname, node, method in definitions:
        if node.name.startswith("_") or qualname == "cli.main":
            continue
        inside = {id(n) for n in ast.walk(node)}
        if any(
            name == node.name and at not in inside and (attribute or not method)
            for name, at, attribute in uses
        ):
            continue
        if {node.name, qualname.split(".", 1)[1]} & documented:
            continue
        unused.append(qualname)
    assert unused == []


def test_imports_follow_the_readme_module_map():
    # the README lists the modules bottom up; a module-level import of the
    # package may reach only modules listed before the importer, so the map
    # stays a layering (imports deferred into a function are exempt)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Module map, bottom up:", 1)[1].split("\n\n", 2)[1]
    layers = re.findall(r"^\* `(\w+)`", section, flags=re.MULTILINE)
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(layers) == sorted(modules)
    upward = []
    for rank, module in enumerate(layers):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["dezaforge" * node.level, node.module]))
                targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            names = {t.split(".")[1] for t in targets if t.startswith("dezaforge.")}
            upward += [
                f"{module} imports {name}"
                for name in names
                if name in modules and name not in layers[:rank]
            ]
    assert upward == []
