"""Named graphs, their registered involutions, and known automorphism seeds.

Every object here is derived deterministically from the embedded constants:
the two 5x5 generator matrices over GF(3) and the Golay parity check matrix.
The switching involution, its centralizer pair, and the fixed-space
translations are recomputed from those sources on demand rather than stored
as magic numbers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .gf3 import (
    GF3Matrix,
    M11_GEN_A,
    M11_GEN_B,
    connection_set_s1,
    fixed_space_basis,
    identity,
    negate,
)
from .golay import connection_set_S2, reversal_perm
from .graphcore import (
    Graph,
    cayley,
    dual_seidel_switch,
    from_edges,
    lift_involution_to_product,
    strong_product_K2,
)
from .permgroup import Permutation, perm_from_matrix, translation_perm

GRAPH_NAMES = (
    "gamma",
    "gamma-s2",
    "delta",
    "gamma-k2",
    "delta-k2",
    "petersen",
    "c5",
)

# Known |Aut| of the named graphs, the order an automorphism search must reach.
AUT_ORDERS = {"gamma": 3_849_120, "delta": 2592, "petersen": 120, "c5": 10}


class UnknownGraphError(ValueError):
    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(
            f"unknown graph {name!r}; known names: {', '.join(GRAPH_NAMES)}"
        )


def _closure(gens: np.ndarray) -> np.ndarray:
    """The group that the stacked 5x5 GF(3) gens generate, sorted by entries.

    Grown by right multiplication one frontier at a time; np.unique on base-3
    codes of the flattened entries (first most significant) drops repeats.
    """
    weights = 3 ** np.arange(24, -1, -1, dtype=np.int64)
    group = frontier = np.eye(5, dtype=np.int64)[None]
    while len(frontier):
        products = (frontier[:, None] @ gens % 3).reshape(-1, 5, 5)
        merged = np.concatenate([group, products])
        _, first = np.unique(merged.reshape(-1, 25) @ weights, return_index=True)
        # the sorted group comes first in merged, so new matrices index past it
        frontier = merged[first[first >= len(group)]]
        group = merged[first]
    return group


@lru_cache(maxsize=None)
def matrix_group() -> np.ndarray:
    """The group of the two embedded generators: a read-only (7920, 5, 5) array."""
    group = _closure(np.stack([M11_GEN_A.array, M11_GEN_B.array]))
    group.setflags(write=False)
    return group


@lru_cache(maxsize=None)
def switching_matrix() -> GF3Matrix:
    """The canonical order-2 matrix of the generated group.

    The group has a single conjugacy class of involutions and conjugation
    preserves the pair classification on the Cayley graph, so the first
    involution in sorted order serves as the switching involution. Its fixed
    space has dimension 3, i.e. 27 fixed vectors.
    """
    group = matrix_group()
    ident = np.eye(5, dtype=np.int64)
    squares_to_one = (group @ group % 3 == ident).all(axis=(1, 2))
    involutions = np.flatnonzero(squares_to_one & (group != ident).any(axis=(1, 2)))
    if not involutions.size:
        raise AssertionError("matrix group contains no involution")
    m = GF3Matrix(group[involutions[0]])
    fixed = len(fixed_space_basis(m))
    if fixed != 3:
        raise ArithmeticError(
            f"switching involution fixes a space of dimension {fixed}, not 3"
        )
    return m


def switching_involution() -> Permutation:
    return perm_from_matrix(switching_matrix())


def negation_involution() -> Permutation:
    return perm_from_matrix(negate(identity(5)))


def negated_switching_involution() -> Permutation:
    return perm_from_matrix(negate(switching_matrix()))


def lifted_switching_involution() -> Permutation:
    return lift_involution_to_product(switching_involution())


@lru_cache(maxsize=None)
def centralizer_pair() -> tuple[GF3Matrix, GF3Matrix]:
    """First matrix pair generating the full order-48 switching centralizer."""
    x = switching_matrix().array
    group = matrix_group()
    cent = group[(group @ x % 3 == x @ group % 3).all(axis=(1, 2))]
    for i, j in itertools.combinations(range(len(cent)), 2):
        if len(_closure(cent[[i, j]])) == len(cent):
            return (GF3Matrix(cent[i]), GF3Matrix(cent[j]))
    raise AssertionError("centralizer is not generated by any matrix pair")


def known_generators(name: str) -> list[Permutation]:
    """Published automorphism generators for the named graph, if any.

    gamma: the 243 translations (via a basis), the two matrix generators,
    and negation, generating the full group of order 3 849 120. delta: the
    27 switching-fixed translations (via a basis), negation, and the
    centralizer pair, generating the order-2592 group.
    """
    if name == "gamma":
        return [
            *(translation_perm(t) for t in np.eye(5, dtype=np.int64)),
            perm_from_matrix(M11_GEN_A),
            perm_from_matrix(M11_GEN_B),
            negation_involution(),
        ]
    if name == "delta":
        c1, c2 = centralizer_pair()
        return [
            *(translation_perm(t) for t in fixed_space_basis(switching_matrix())),
            negation_involution(),
            perm_from_matrix(c1),
            perm_from_matrix(c2),
        ]
    return []


def petersen_transposition() -> Permutation:
    """Automorphism of the Petersen graph from swapping two base points."""
    pairs = sorted(itertools.combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    swap = {0: 1, 1: 0, 2: 2, 3: 3, 4: 4}
    return Permutation(
        [index[tuple(sorted((swap[a], swap[b])))] for (a, b) in pairs]
    )


def c5_reflection() -> Permutation:
    return Permutation([0, 4, 3, 2, 1])


@lru_cache(maxsize=None)
def build_graph(name: str) -> Graph:
    """Construct a named graph; raises UnknownGraphError otherwise."""
    if name == "gamma":
        return cayley(connection_set_s1(), label="gamma")
    if name == "gamma-s2":
        return cayley(connection_set_S2(), label="gamma-s2")
    if name == "delta":
        return dual_seidel_switch(
            build_graph("gamma"), switching_involution(), label="delta"
        )
    if name == "gamma-k2":
        return strong_product_K2(build_graph("gamma"), label="gamma-k2")
    if name == "delta-k2":
        return dual_seidel_switch(
            build_graph("gamma-k2"), lifted_switching_involution(), label="delta-k2"
        )
    if name == "petersen":
        pairs = sorted(itertools.combinations(range(5), 2))
        index = {p: i for i, p in enumerate(pairs)}
        edges = [
            (index[p], index[q])
            for p in pairs
            for q in pairs
            if p < q and not set(p) & set(q)
        ]
        return from_edges(10, edges, label="petersen")
    if name == "c5":
        return from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], label="c5")
    raise UnknownGraphError(name)


def involutions_for(name: str) -> dict[str, Permutation]:
    """Registered involutions of the named graph, in a fixed order."""
    if name == "gamma":
        return {
            "negation": negation_involution(),
            "switching": switching_involution(),
            "negated-switching": negated_switching_involution(),
        }
    if name == "gamma-s2":
        return {"reversal": reversal_perm()}
    if name == "delta":
        return {"switching": switching_involution()}
    if name == "gamma-k2":
        return {"lifted-switching": lifted_switching_involution()}
    if name == "petersen":
        return {"transposition": petersen_transposition()}
    if name == "c5":
        return {"reflection": c5_reflection()}
    if name in GRAPH_NAMES:
        return {}
    raise UnknownGraphError(name)
