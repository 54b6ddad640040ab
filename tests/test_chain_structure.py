"""Pinned stabilizer-chain structure: base, generator levels, strong
generators and transversal point order, per generating set.

The automorphism search prunes with the chain's level generators and reports
the generators it finds, so a change to how the chain is built must leave
its structure as it was, not only its order. Regenerate the file, only when
the structure is meant to change, with

    PYTHONPATH=src python tests/test_chain_structure.py
"""

import json
import sys
from pathlib import Path

import numpy as np

from dezaforge.catalog import known_generators
from dezaforge.gf3 import M11_GEN_A, M11_GEN_B
from dezaforge.permgroup import Permutation, StabilizerChain, build_chain, perm_from_matrix

PINNED = Path(__file__).with_name("chain_structure.json")


def _random_generators(seed: int) -> list[Permutation]:
    """1-3 permutations of degree <= 12, each moving a random subset."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    gens = []
    for _ in range(int(rng.integers(1, 4))):
        images = np.arange(n)
        moved = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        images[moved] = rng.permutation(moved)
        gens.append(Permutation(images))
    return gens


def cases() -> dict[str, tuple[list[Permutation], tuple[int, ...]]]:
    """name -> (generators, fixed base prefix)."""
    out = {
        "gamma": (known_generators("gamma"), ()),
        "delta": (known_generators("delta"), ()),
        "m11": ([perm_from_matrix(M11_GEN_A), perm_from_matrix(M11_GEN_B)], ()),
        "delta-base-prefix": (known_generators("delta"), (7, 100)),
    }
    for seed in range(20):
        out[f"random-{seed}"] = (_random_generators(seed), ())
    return out


def _transversal_points(chain: StabilizerChain) -> list[list[int]]:
    return [list(tr) for tr in chain.transversals]


def structure(gens: list[Permutation], base: tuple[int, ...]) -> dict:
    if base:
        chain = StabilizerChain(gens[0].degree, base=base)
        for g in gens:
            chain.add_generator(g.images)
    else:
        chain = build_chain(gens)
    return {
        "order": chain.order(),
        "base": [int(b) for b in chain.base],
        "gen_level": list(chain.gen_level),
        "strong_generators": [g.tolist() for g in chain.strong_gens],
        "transversal_points": _transversal_points(chain),
    }


def test_chain_structure_matches_pin():
    pinned = json.loads(PINNED.read_text())
    built = cases()
    assert sorted(pinned) == sorted(built)
    differ = [name for name, (gens, base) in built.items() if structure(gens, base) != pinned[name]]
    assert differ == [], f"chain structure differs from {PINNED.name} for: {differ}"


if __name__ == "__main__":
    records = {name: structure(gens, base) for name, (gens, base) in cases().items()}
    PINNED.write_text(
        "{\n"
        + ",\n".join(f"{json.dumps(name)}: {json.dumps(rec)}" for name, rec in records.items())
        + "\n}\n"
    )
    sys.exit(0)
