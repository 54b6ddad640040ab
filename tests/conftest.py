import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from dezaforge import graphcore
from dezaforge.catalog import build_graph


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
