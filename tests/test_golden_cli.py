"""Golden CLI outputs: exit code and SHA-256 of stdout per invocation.

The recorded hashes pin the JSON byte for byte, generator lists included, so
a refactor of the group code cannot change a report unnoticed. The `elapsed`
timings of `run` reports are blanked before hashing. Regenerate the file,
only when an output is meant to change, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from dezaforge.catalog import build_graph
from dezaforge.cli import main
from dezaforge.graphcore import Graph, to_graph6

GOLDEN = Path(__file__).with_name("golden_cli.json")
RELABELLED = ("delta", "petersen", "c5")

INVOCATIONS = [
    ["run"],
    ["run", "--deep"],
    ["run", "--deep", "--node-budget", "1"],
    *(
        ["aut", name, *budget]
        for name in ("gamma", "delta", "petersen", "c5")
        for budget in ([], ["--node-budget", "1"], ["--node-budget", "5"])
    ),
    *(["aut", "{tmp}/" + name + "-relabelled.g6"] for name in RELABELLED),
    ["involutions", "gamma"],
    ["switch", "gamma"],
    ["iso", "s1", "s2"],
    ["spectrum", "delta"],
    *(
        ["export", name, "--format", "graph6"]
        for name in ("gamma", "gamma-s2", "delta", "gamma-k2", "delta-k2", "petersen", "c5")
    ),
    ["export", "{tmp}/delta-relabelled.g6", "--format", "graph6"],
    ["golay"],
]


def write_relabelled(directory: Path) -> None:
    """graph6 copies of the named graphs under the relabelling i -> 7i + 3 mod v."""
    for name in RELABELLED:
        g = build_graph(name)
        p = (7 * np.arange(g.v) + 3) % g.v
        a = np.zeros((g.v, g.v), dtype=bool)
        a[np.ix_(p, p)] = g.adjacency
        (directory / f"{name}-relabelled.g6").write_text(to_graph6(Graph(a)) + "\n")


def digest(argv: list[str], directory: Path) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([arg.format(tmp=directory) for arg in argv])
    text = re.sub(r'"elapsed": [^,\n}]+', '"elapsed": null', stdout.getvalue())
    return {
        "argv": argv,
        "exit_code": code,
        "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def test_cli_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == INVOCATIONS
    write_relabelled(tmp_path)
    differ = [
        " ".join(entry["argv"])
        for entry in golden
        if digest(entry["argv"], tmp_path) != entry
    ]
    assert differ == [], f"output differs from {GOLDEN.name} for: {differ}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_relabelled(Path(tmp))
        records = [digest(argv, Path(tmp)) for argv in INVOCATIONS]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    sys.exit(0)
