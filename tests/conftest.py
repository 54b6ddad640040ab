import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import dezaforge
from dezaforge import graphcore
from dezaforge.catalog import build_graph
from dezaforge.graphcore import is_automorphism
from schreier_sims import group_order


@pytest.fixture
def witness_calls(monkeypatch):
    """The permutations passed to graphcore.automorphism_witness, in order."""
    calls = []
    witness = graphcore.automorphism_witness

    def counted(g, sigma):
        calls.append(sigma)
        return witness(g, sigma)

    monkeypatch.setattr(graphcore, "automorphism_witness", counted)
    return calls


@pytest.fixture
def matmul_calls(monkeypatch):
    """(module, square, shape) for every exact_matmul call, by any module's
    name for it.

    square is the left operand when the call multiplies an array by itself,
    and None otherwise; other operands are not kept. shape is the product's.
    """
    calls = []
    matmul = graphcore.exact_matmul

    def counted_in(module):
        name = module.__name__.rsplit(".", 1)[-1]

        def counted(left, right):
            product = matmul(left, right)
            calls.append((name, left if left is right else None, product.shape))
            return product

        return counted

    for info in pkgutil.iter_modules(dezaforge.__path__):
        module = importlib.import_module(f"dezaforge.{info.name}")
        if hasattr(module, "exact_matmul"):
            monkeypatch.setattr(module, "exact_matmul", counted_in(module))
    return calls


@pytest.fixture
def unique_calls(monkeypatch):
    """The first argument of every numpy.unique call, in order."""
    calls = []
    unique = np.unique

    def counted(ar, *args, **kwargs):
        calls.append(ar)
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    return calls


@pytest.fixture
def gen(monkeypatch):
    """bench/gen.py: closed-form graphs and their expected answers, built apart
    from dezaforge. Skips without networkx, which the module imports."""
    pytest.importorskip("networkx")
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return pytest.importorskip("gen")


@pytest.fixture(scope="session")
def verified_order():
    """order(g, gens): the Schreier-Sims order of the group that gens
    generate, after checking each one as an automorphism of g."""

    def order(g, gens):
        gens = list(gens)
        for sigma in gens:
            assert is_automorphism(g, sigma), sigma
        return group_order(gens)

    return order


@pytest.fixture(scope="session")
def gamma():
    return build_graph("gamma")


@pytest.fixture(scope="session")
def gamma_s2():
    return build_graph("gamma-s2")


@pytest.fixture(scope="session")
def delta():
    return build_graph("delta")


@pytest.fixture(scope="session")
def gamma_k2():
    return build_graph("gamma-k2")


@pytest.fixture(scope="session")
def delta_k2():
    return build_graph("delta-k2")


@pytest.fixture(scope="session")
def petersen():
    return build_graph("petersen")


@pytest.fixture(scope="session")
def c5():
    return build_graph("c5")


@pytest.fixture(scope="session")
def run_optimized():
    """Run a Python snippet under `python -O`, where assert statements vanish."""
    src = Path(__file__).resolve().parents[1] / "src"

    def run(script: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        prelude = "import sys\nif not sys.flags.optimize:\n    sys.exit('not optimized')\n"
        return subprocess.run(
            [sys.executable, "-O", "-c", prelude + textwrap.dedent(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    return run
