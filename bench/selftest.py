"""Self-test of the benchmark's checks: each must reject a corrupted answer.

Usage, from the root of a source checkout:

    PYTHONPATH=src python3 bench/selftest.py

For each case the program answers one verdict for real (through
`dezaforge.cli.main`, on a relabelled graph6 file), the matching check must
accept that answer, and the same check must reject a copy with one planted
error: a wrong multiplicity, a generator that is not an automorphism, a DDG
partition with two vertices swapped between classes, one flipped graph6
byte, and a failure witness whose two pairs do not differ. Exits 0 when
every case behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402


def answer(argv: list[str]) -> tuple[int, str]:
    import dezaforge.cli as cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def wrong_multiplicity(out: str) -> str:
    d = json.loads(out)
    d["discovered"][0][1] += 1
    return json.dumps(d)


def not_an_automorphism(out: str) -> str:
    # no transposition of two Petersen vertices is an automorphism, so
    # composing a generator with (0 1) breaks adjacency
    d = json.loads(out)
    g = d["generators"][0]
    g[0], g[1] = g[1], g[0]
    return json.dumps(d)


def swapped_partition(out: str) -> str:
    d = json.loads(out)
    first, second = d["partition"][0], d["partition"][1]
    first[0], second[0] = second[0], first[0]
    return json.dumps(d)


def flipped_byte(out: str) -> str:
    data = bytearray(out.encode())
    data[len(data) // 2] = data[len(data) // 2] ^ 1
    return data.decode()


def equal_witnesses(out: str) -> str:
    d = json.loads(out)
    for pairs in d["witnesses"].values():
        if isinstance(pairs, list):
            pairs[1] = dict(pairs[0])
    return json.dumps(d)


def main() -> int:
    graphs = {e.name: e for e in gen.closed_form_family() + gen.paper_graphs()}
    rng = np.random.default_rng(0)
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        def file_of(name: str) -> tuple[gen.Expected, str, bytes]:
            e = gen.relabel(graphs[name], rng)
            path = Path(tmp) / f"{name}.g6"
            return e, str(path), gen.write_graph6(e.adj, path)

        cases = []
        e, path, _ = file_of("rook-5")
        cases.append(("wrong multiplicity", ["spectrum", path],
                      lambda c, o, e=e: checks.check_spectrum(e, c, o), wrong_multiplicity))
        e, path, _ = file_of("petersen")
        cases.append(("generator not an automorphism", ["aut", path],
                      lambda c, o, e=e: checks.check_aut(e, c, o), not_an_automorphism))
        e, path, _ = file_of("gamma-k2")
        cases.append(("DDG classes with two vertices swapped", ["certify-ddg", path],
                      lambda c, o, e=e: checks.check_ddg(e, c, o), swapped_partition))
        e, path, data = file_of("clebsch")
        cases.append(("one flipped graph6 byte", ["export", path, "--format", "graph6"],
                      lambda c, o, data=data: checks.check_export(data, c, o), flipped_byte))
        e, path, _ = file_of("delta")
        cases.append(("failure witness pairs that do not differ", ["certify-srg", path],
                      lambda c, o, e=e: checks.check_srg(e, c, o), equal_witnesses))

        for label, argv, check, corrupt in cases:
            code, out = answer(argv)
            try:
                check(code, out)
            except checks.Wrong as exc:
                print(f"FAIL {label}: the real answer was rejected: {exc}")
                failures += 1
                continue
            try:
                check(code, corrupt(out))
            except checks.Wrong as exc:
                print(f"ok   {label}: rejected ({exc})")
            else:
                print(f"FAIL {label}: the corrupted answer was accepted")
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
