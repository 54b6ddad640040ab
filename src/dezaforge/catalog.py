"""Named graphs, their registered involutions, and known automorphism seeds.

Every object here is derived deterministically from the embedded constants:
the two 5x5 generator matrices over GF(3), the table of their 22-point orbit
and the Golay parity check matrix. The switching involution, its centralizer
pair, and the fixed-space translations are recomputed from those sources on
demand rather than stored as magic numbers. The automorphism seeds are
held as affine data, so their group's order needs no stabilizer chain.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .gf3 import (
    ConnectionSet,
    GF3Matrix,
    M11_GEN_A,
    M11_GEN_B,
    fixed_space_basis,
    identity,
    negate,
    rank,
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
from .permgroup import Permutation, orbit_labels, perm_from_matrix, translation_perm

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


# The unique 22-point orbit of M11 on the nonzero vectors of V(5,3),
# listed as eleven +- pairs. The remaining 220 nonzero vectors form the
# other orbit. This set is the connection set of the Berlekamp-Van
# Lint-Seidel graph in its Cayley presentation.
_S1_BASE = np.array([
    (1, 0, 0, 0, 0),
    (0, 0, 1, 0, 1),
    (0, 1, 0, 1, 0),
    (0, 1, 2, 0, 0),
    (0, 0, 1, 2, 1),
    (0, 1, 0, 1, 2),
    (1, 1, 2, 0, 2),
    (1, 0, 0, 1, 2),
    (1, 0, 2, 1, 0),
    (1, 1, 0, 0, 2),
    (1, 1, 2, 1, 0),
])


_NEGATION = negate(identity(5))


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
    small = group.astype(np.int8)  # a product's entries are at most 20
    ident = np.eye(5, dtype=np.int64)
    squares_to_one = (small @ small % 3 == ident).all(axis=(1, 2))
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


def m11_orbit_labels() -> np.ndarray:
    """Orbit labels of the two M11 generators on the 243 vertex indices."""
    return orbit_labels(243, [perm_from_matrix(g).images for g in (M11_GEN_A, M11_GEN_B)])


@lru_cache(maxsize=1)
def connection_set_s1() -> ConnectionSet:
    """The 22-vector M11 orbit as a connection set.

    Recomputes the orbit of (1,0,0,0,0), vertex 1, under the right action of
    the M11 generators and insists it equal the embedded table. This pins the
    row-vector convention: under the transposed action the orbit would not
    reproduce the table, and construction fails loudly.
    """
    table = ConnectionSet(np.concatenate([_S1_BASE, -_S1_BASE % 3]))
    labels = m11_orbit_labels()
    if not np.array_equal(np.flatnonzero(labels == labels[1]), table.indices):
        raise AssertionError(
            "M11 orbit of (1,0,0,0,0) does not match the embedded 22-vector table; "
            "matrix action convention is wrong"
        )
    return table


def switching_involution() -> Permutation:
    return perm_from_matrix(switching_matrix())


def negation_involution() -> Permutation:
    return perm_from_matrix(_NEGATION)


def negated_switching_involution() -> Permutation:
    return perm_from_matrix(negate(switching_matrix()))


def lifted_switching_involution() -> Permutation:
    return lift_involution_to_product(switching_involution())


@lru_cache(maxsize=None)
def centralizer_pair() -> tuple[GF3Matrix, GF3Matrix]:
    """First matrix pair generating the full order-48 switching centralizer."""
    x = switching_matrix().array.astype(np.int8)
    group = matrix_group()
    small = group.astype(np.int8)  # a product's entries are at most 20
    cent = group[(small @ x % 3 == x @ small % 3).all(axis=(1, 2))]
    for i, j in itertools.combinations(range(len(cent)), 2):
        if len(_closure(cent[[i, j]])) == len(cent):
            return (GF3Matrix(cent[i]), GF3Matrix(cent[j]))
    raise AssertionError("centralizer is not generated by any matrix pair")


def affine_seeds(name: str) -> tuple[np.ndarray, list[GF3Matrix]]:
    """Published automorphism seeds as the rows t and matrices M of the maps
    v -> v + t and v -> vM. gamma: a basis of V, the two matrix generators
    and negation; delta: a basis of the switching-fixed space, negation and
    the centralizer pair; no seeds for any other graph.
    """
    if name == "gamma":
        return np.eye(5, dtype=np.int64), [M11_GEN_A, M11_GEN_B, _NEGATION]
    if name == "delta":
        return fixed_space_basis(switching_matrix()), [_NEGATION, *centralizer_pair()]
    return np.empty((0, 5), dtype=np.int64), []


def known_generators(name: str) -> list[Permutation]:
    """The permutations of affine_seeds(name), translations first. gamma's
    generate the full group of order 3 849 120, delta's that of order 2592."""
    translations, matrices = affine_seeds(name)
    return [*map(translation_perm, translations), *map(perm_from_matrix, matrices)]


def affine_order(translations: np.ndarray, matrices: list[GF3Matrix]) -> int:
    """Order of the group that v -> v + t, for t a row of translations, and
    v -> vM, for M in matrices, generate on V(5, 3): W x| L for L = <matrices>
    and W the span of the translations closed under L, so 3^dim W * |L|
    (Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005,
    ch. 4). -I is central of order 2: it doubles the group of the other
    matrices unless that holds it. The M11 pair's group is matrix_group().
    """
    rest = [m for m in matrices if m != _NEGATION]
    stacked = np.array([m.array for m in rest], np.int64).reshape(-1, 5, 5)
    group = matrix_group() if rest == [M11_GEN_A, M11_GEN_B] else _closure(stacked)
    doubled = len(rest) < len(matrices) and not (group == _NEGATION.array).all((1, 2)).any()
    span = translations
    while True:  # -I keeps every subspace, so only the rest can grow the span
        grown = np.concatenate([span, *(span @ m.array % 3 for m in rest)])
        if rank(GF3Matrix(grown)) == rank(GF3Matrix(span)):
            return 3 ** rank(GF3Matrix(span)) * len(group) * (1 + doubled)
        span = grown


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
