"""Named graphs, their registered involutions, and known automorphism seeds.

Each named Cayley graph on V(5,3) (gamma, gamma-s2 and delta) is one
Presentation: its connection set, delta's switching matrix, its seeds as
translations and matrices, and its named involution matrices. The graph,
the involutions, the seed permutations and the seeds' group order are all
read from it, the order once per presentation. The other names are
operations on these graphs or edge lists.

The stored constants are checked on first use: the S1 table against the
M11 orbit of (1,0,0,0,0); the switching matrix sigma for sigma^2 = I,
sigma != I, S1 sigma = S1 and a fixed space of dimension 3; its centralizer
pair for commuting with sigma and generating 48 matrices. The tests rederive
sigma and the pair as the first choices in the sorted 7920-element group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .gf3 import (
    ConnectionSet,
    M11_GEN_A,
    M11_GEN_B,
    fixed_space_basis,
    indices_of,
    matrix,
    rank,
)
from .golay import connection_set_S2
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

# The switching involution sigma: the first involution of the group the M11
# generators generate, in the sorted order of matrix_group(). The group has
# one conjugacy class of involutions, and conjugation keeps the pair
# classification on the Cayley graph, so any of them would serve.
_SWITCHING = matrix([
    (0, 0, 1, 0, 1), (1, 0, 1, 1, 1), (1, 1, 1, 2, 0),
    (2, 1, 2, 0, 2), (0, 2, 2, 1, 0),
])

# The first pair, in the same order, that generates sigma's centralizer in
# that group, of order 48.
_CENTRALIZER_PAIR = (
    matrix([
        (0, 0, 1, 0, 1), (0, 2, 0, 2, 2), (2, 1, 1, 2, 0),
        (2, 0, 0, 1, 2), (2, 2, 2, 1, 0),
    ]),
    matrix([
        (0, 0, 1, 2, 1), (0, 2, 0, 2, 2), (1, 2, 0, 2, 2),
        (1, 1, 2, 2, 1), (1, 0, 1, 1, 2),
    ]),
)

_NEGATION = matrix(-np.eye(5, dtype=np.int64) % 3)
_REVERSAL = matrix(np.eye(5, dtype=np.int64)[::-1])  # (a,b,c,d,e) -> (e,d,c,b,a)


class UnknownGraphError(ValueError):
    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(
            f"unknown graph {name!r}; known names: {', '.join(GRAPH_NAMES)}"
        )


def _closure(gens: np.ndarray) -> np.ndarray:
    """The group that the stacked n x n GF(3) gens generate, sorted by entries.

    Grown by right multiplication one frontier at a time; np.unique on base-3
    codes of the flattened entries (first most significant) drops repeats.
    A code has n^2 digits, so n is at most 6 for it to fit int64.
    """
    n = gens.shape[-1]
    if n > 6:
        raise ValueError(f"base-3 codes of {n}x{n} matrices do not fit int64")
    weights = 3 ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
    group = frontier = np.eye(n, dtype=np.int64)[None]
    while len(frontier):
        products = (frontier[:, None] @ gens % 3).reshape(-1, n, n)
        merged = np.concatenate([group, products])
        _, first = np.unique(merged.reshape(-1, n * n) @ weights, return_index=True)
        # the sorted group comes first in merged, so new matrices index past it
        frontier = merged[first[first >= len(group)]]
        group = merged[first]
    return group


@lru_cache(maxsize=None)
def matrix_group() -> np.ndarray:
    """The group of the two embedded generators: a read-only (7920, 5, 5) array."""
    group = _closure(np.stack([M11_GEN_A, M11_GEN_B]))
    group.setflags(write=False)
    return group


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


@lru_cache(maxsize=None)
def switching_matrix() -> np.ndarray:
    """The stored switching involution sigma, checked: sigma^2 = I, sigma != I,
    S1 sigma = S1, and a fixed space of dimension 3, i.e. 27 fixed vectors."""
    sigma, ident = _SWITCHING, np.eye(5, dtype=np.int64)
    if not np.array_equal(sigma @ sigma % 3, ident) or np.array_equal(sigma, ident):
        raise ArithmeticError("switching matrix is not an involution")
    s1 = connection_set_s1()
    if not np.array_equal(np.sort(indices_of(s1.vectors @ sigma % 3)), s1.indices):
        raise ArithmeticError("switching matrix does not keep S1")
    fixed = len(fixed_space_basis(sigma))
    if fixed != 3:
        raise ArithmeticError(
            f"switching involution fixes a space of dimension {fixed}, not 3"
        )
    return sigma


@lru_cache(maxsize=None)
def centralizer_pair() -> tuple[np.ndarray, np.ndarray]:
    """The stored pair generating sigma's centralizer, checked: each member
    commutes with sigma, and the two generate 48 matrices."""
    sigma = switching_matrix()
    if any(not np.array_equal(m @ sigma % 3, sigma @ m % 3) for m in _CENTRALIZER_PAIR):
        raise ArithmeticError("centralizer pair member does not commute with sigma")
    order = len(_closure(np.stack(_CENTRALIZER_PAIR)))
    if order != 48:
        raise ArithmeticError(f"centralizer pair generates {order} matrices, not 48")
    return _CENTRALIZER_PAIR


def switching_involution() -> Permutation:
    return perm_from_matrix(switching_matrix())


def lifted_switching_involution() -> Permutation:
    return lift_involution_to_product(switching_involution())


def affine_order(translations: np.ndarray, matrices: list[np.ndarray]) -> int:
    """Order of the group that v -> v + t, for t a row of translations, and
    v -> vM, for M in matrices, generate on V(n, 3): W x| L for L = <matrices>
    and W the span of the translations closed under L, so 3^dim W * |L|
    (Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005,
    ch. 4). -I is central of order 2: it doubles the group of the other
    matrices unless that holds it. The M11 pair's group is matrix_group().
    """
    n = translations.shape[1]
    negation = -np.eye(n, dtype=np.int64) % 3
    rest = [m for m in matrices if not np.array_equal(m, negation)]
    stacked = np.array(rest, np.int64).reshape(-1, n, n)
    m11 = np.array_equal(stacked, [M11_GEN_A, M11_GEN_B])
    group = matrix_group() if m11 else _closure(stacked)
    doubled = len(rest) < len(matrices) and not (group == negation).all((1, 2)).any()
    span = translations
    while True:  # -I keeps every subspace, so only the rest can grow the span
        grown = np.concatenate([span, *(span @ m % 3 for m in rest)])
        if rank(grown) == rank(span):
            return 3 ** rank(span) * len(group) * (1 + doubled)
        span = grown


@dataclass(frozen=True, eq=False)
class Presentation:
    """Cay(V(n,3), S) as data, switched by the matrix `switching` when given:
    then x ~ y iff y - x.switching lies in S. The seeds are the maps
    v -> v + t, for t a row of `translations`, and v -> vM, for M in
    `matrices`; `involutions` names the matrices of registered involutions.
    """

    connection_set: ConnectionSet
    translations: np.ndarray
    matrices: tuple[np.ndarray, ...]
    involutions: dict[str, np.ndarray]
    switching: np.ndarray | None = None

    def graph(self, label: str = "") -> Graph:
        g = cayley(self.connection_set, label)
        if self.switching is None:
            return g
        return dual_seidel_switch(g, perm_from_matrix(self.switching), label)

    def generators(self) -> list[Permutation]:
        """The seeds as permutations, translations first."""
        return [*map(translation_perm, self.translations), *map(perm_from_matrix, self.matrices)]

    @cached_property
    def seed_order(self) -> int:
        """The order of the group the seeds generate, by affine_order."""
        return affine_order(self.translations, list(self.matrices))


# gamma's seeds generate the full group of order 3 849 120, delta's that of
# order 2592 (AUT_ORDERS); gamma-s2 has none
_PRESENTATIONS: dict[str, Callable[[], Presentation]] = {
    "gamma": lambda: Presentation(
        connection_set_s1(),
        np.eye(5, dtype=np.int64),
        (M11_GEN_A, M11_GEN_B, _NEGATION),
        {
            "negation": _NEGATION,
            "switching": switching_matrix(),
            "negated-switching": matrix(-switching_matrix() % 3),
        },
    ),
    "gamma-s2": lambda: Presentation(
        connection_set_S2(), np.empty((0, 5), dtype=np.int64), (), {"reversal": _REVERSAL}
    ),
    "delta": lambda: Presentation(
        connection_set_s1(),
        fixed_space_basis(switching_matrix()),
        (_NEGATION, *centralizer_pair()),
        {"switching": switching_matrix()},
        switching=switching_matrix(),
    ),
}


@lru_cache(maxsize=None)
def presentation(name: str) -> Presentation:
    """The presentation of a named Cayley graph, built on first use."""
    return _PRESENTATIONS[name]()


def known_generators(name: str) -> list[Permutation]:
    """The seeds of the named graph as permutations; none without a presentation."""
    return presentation(name).generators() if name in _PRESENTATIONS else []


def seed_order(name: str) -> int:
    """The order of the group known_generators(name) generate."""
    return presentation(name).seed_order if name in _PRESENTATIONS else 1


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
    if name in _PRESENTATIONS:
        return presentation(name).graph(name)
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
    if name in _PRESENTATIONS:
        return {k: perm_from_matrix(m) for k, m in presentation(name).involutions.items()}
    if name == "gamma-k2":
        return {"lifted-switching": lifted_switching_involution()}
    if name == "petersen":
        return {"transposition": petersen_transposition()}
    if name == "c5":
        return {"reflection": c5_reflection()}
    if name in GRAPH_NAMES:
        return {}
    raise UnknownGraphError(name)
