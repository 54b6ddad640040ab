"""Benchmark inputs and their expected answers, built without dezaforge.

Every graph here comes from a closed form or from the paper's published
constants: the ATLAS generators of M11 over GF(3), the ternary Golay parity
check matrix, and the constructions of the paper (dual Seidel switching and
the strong product with K2). Nothing imports the program under test, so the
expected answers are a computation made apart from it.

Vertices of the Cayley graphs on GF(3)^5 are numbered as the program numbers
them (coordinate i is the ternary digit of weight 3^i), so the paper graphs
built here are equal, not merely isomorphic, to the program's named graphs.
Relabelled copies for file inputs are written with networkx's graph6 encoder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx
import numpy as np

# Standard generators of M11 in its 5-dimensional representation over GF(3)
# (ATLAS of Finite Group Representations); row vectors act as x -> x M.
ATLAS_A = np.array(
    [[0, 2, 1, 0, 0], [2, 1, 1, 2, 2], [0, 1, 1, 2, 2], [1, 0, 2, 2, 1], [1, 2, 2, 2, 0]]
)
ATLAS_B = np.array(
    [[0, 0, 2, 0, 2], [1, 1, 2, 2, 0], [2, 2, 2, 2, 2], [1, 2, 1, 1, 0], [2, 2, 0, 2, 1]]
)
# Parity check matrix [B | I5] of the [11, 6, 5] ternary Golay code.
GOLAY_H = np.array(
    [
        [1, 1, 1, 2, 2, 0, 1, 0, 0, 0, 0],
        [1, 1, 2, 1, 0, 2, 0, 1, 0, 0, 0],
        [1, 2, 1, 0, 1, 2, 0, 0, 1, 0, 0],
        [1, 2, 0, 1, 2, 1, 0, 0, 0, 1, 0],
        [1, 0, 2, 2, 1, 1, 0, 0, 0, 0, 1],
    ]
)

# The paper's claims: "On strictly Deza graphs derived from the
# Berlekamp-Van Lint-Seidel graph" (arXiv:1907.02800).
M11_ORDER = 7920
GAMMA_AUT = 3_849_120
DELTA_AUT = 2592
GAMMA_SPECTRUM = ((22, 1), (4, 132), (-5, 110))
DELTA_SPECTRUM = ((22, 1), (5, 48), (4, 72), (-4, 60), (-5, 62))
GAMMA_K2_SPECTRUM = ((45, 1), (9, 132), (-1, 243), (-9, 110))
DELTA_K2_SPECTRUM = ((45, 1), (9, 120), (1, 108), (-1, 135), (-9, 122))

VECTORS = np.array(list(itertools.product(range(3), repeat=5)))[:, ::-1]
WEIGHTS = 3 ** np.arange(5)


def vector_index(vectors: np.ndarray) -> np.ndarray:
    return (np.asarray(vectors) % 3) @ WEIGHTS


def orbit(gens: list[np.ndarray], seed: tuple[int, ...]) -> set[tuple[int, ...]]:
    seen = {seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(int(c) for c in np.array(x) @ g % 3)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def connection_s1() -> set[tuple[int, ...]]:
    """The 22-point M11 orbit of e1: the connection set of gamma."""
    return orbit([ATLAS_A, ATLAS_B], (1, 0, 0, 0, 0))


def connection_s2() -> set[tuple[int, ...]]:
    """The 22 signed columns of the Golay parity check: that of gamma-s2."""
    cols = [tuple(int(c) for c in GOLAY_H[:, j]) for j in range(11)]
    return set(cols) | {tuple((-c) % 3 for c in col) for col in cols}


def cayley(conn: set[tuple[int, ...]]) -> np.ndarray:
    adj = np.zeros((243, 243), dtype=bool)
    rows = np.arange(243)
    for s in conn:
        adj[rows, vector_index(VECTORS + np.array(s))] = True
    return adj


def matrix_group() -> list[np.ndarray]:
    """All elements of <ATLAS_A, ATLAS_B>, sorted by their flattened entries."""
    start = np.eye(5, dtype=np.int64)
    seen = {start.tobytes(): start}
    frontier = [start]
    while frontier:
        m = frontier.pop()
        for g in (ATLAS_A, ATLAS_B):
            n = m @ g % 3
            key = n.tobytes()
            if key not in seen:
                seen[key] = n
                frontier.append(n)
    return sorted(seen.values(), key=lambda m: tuple(m.reshape(-1)))


def matrix_perm(m: np.ndarray) -> np.ndarray:
    """Vertex permutation i -> index(vector_i M)."""
    return vector_index(VECTORS @ m)


def switching_matrix() -> np.ndarray:
    """The first involution of the sorted M11 matrix group.

    M11 has one class of involutions, and any of them gives a switched graph
    isomorphic to the paper's; the first one in sorted order is the one the
    program documents, so the switched graph below equals its `delta`.
    """
    eye = np.eye(5, dtype=np.int64)
    for m in matrix_group():
        if not (m == eye).all() and (m @ m % 3 == eye).all():
            return m
    raise RuntimeError("matrix group has no involution")


def strong_product_k2(adj: np.ndarray) -> np.ndarray:
    """G x K2 with vertex (u, copy) at index 2u + copy."""
    v = adj.shape[0]
    out = np.kron(adj.astype(np.int64) + np.eye(v, dtype=np.int64), np.ones((2, 2), dtype=np.int64))
    return (out - np.eye(2 * v, dtype=np.int64)).astype(bool)


def lift(images: np.ndarray) -> np.ndarray:
    """Copy-preserving lift (u, i) -> (sigma(u), i) to the product."""
    out = np.empty(2 * len(images), dtype=np.int64)
    out[0::2] = 2 * images
    out[1::2] = 2 * images + 1
    return out


# -- closed-form families ---------------------------------------------------


def from_edges(v: int, edges) -> np.ndarray:
    adj = np.zeros((v, v), dtype=bool)
    for a, b in edges:
        adj[a, b] = adj[b, a] = True
    return adj


def paley(p: int) -> np.ndarray:
    squares = {x * x % p for x in range(1, p)}
    return from_edges(p, [(a, b) for a in range(p) for b in range(a + 1, p) if (b - a) % p in squares])


def rook(n: int) -> np.ndarray:
    cells = list(itertools.product(range(n), repeat=2))
    return from_edges(
        n * n,
        [(i, j) for i, j in itertools.combinations(range(n * n), 2)
         if (cells[i][0] == cells[j][0]) != (cells[i][1] == cells[j][1])],
    )


def triangular(n: int) -> np.ndarray:
    pairs = list(itertools.combinations(range(n), 2))
    return from_edges(
        len(pairs),
        [(i, j) for i, j in itertools.combinations(range(len(pairs)), 2)
         if len(set(pairs[i]) & set(pairs[j])) == 1],
    )


def petersen() -> np.ndarray:
    pairs = list(itertools.combinations(range(5), 2))
    return from_edges(
        10,
        [(i, j) for i, j in itertools.combinations(range(10), 2)
         if not set(pairs[i]) & set(pairs[j])],
    )


def clebsch() -> np.ndarray:
    """Folded 5-cube: x ~ y iff x xor y is a unit vector or 1111."""
    return from_edges(16, [(x, y) for x, y in itertools.combinations(range(16), 2) if x ^ y in (1, 2, 4, 8, 15)])


def shrikhande() -> np.ndarray:
    """Cayley graph on Z4 x Z4 with connection set +-{(0,1), (1,0), (1,1)}."""
    conn = {(0, 1), (1, 0), (1, 1), (0, 3), (3, 0), (3, 3)}
    return from_edges(
        16,
        [(x, y) for x, y in itertools.combinations(range(16), 2)
         if ((y // 4 - x // 4) % 4, (y % 4 - x % 4) % 4) in conn],
    )




@dataclass
class Expected:
    """What a correct certifier must answer about one graph."""

    name: str
    adj: np.ndarray
    srg: tuple[int, int, int, int] | None = None
    spectrum: tuple[tuple[int, int], ...] | None = None  # None: not integral
    aut_order: int | None = None
    deza: tuple[int, int, int, int] | None = None  # (v, k, b, a), b > a
    strict: bool = False
    ddg_params: tuple[int, int, int, int] | None = None  # (m, n, lambda1, lambda2)
    extra: dict = field(default_factory=dict)


def srg_spectrum(v: int, k: int, lam: int, mu: int) -> tuple[tuple[int, int], ...] | None:
    """Eigenvalues and multiplicities of an SRG; None when they are irrational."""
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = math.isqrt(disc)
    if root * root != disc:
        return None
    r, s = (lam - mu + root) // 2, (lam - mu - root) // 2
    f = -(k + (v - 1) * s) // (r - s)
    return ((k, 1), (r, f), (s, v - 1 - f))


def _srg(name, adj, params, aut) -> Expected:
    v, k, lam, mu = params
    return Expected(name, adj, srg=params, spectrum=srg_spectrum(*params),
                    aut_order=aut, deza=(v, k, max(lam, mu), min(lam, mu)))


def closed_form_family() -> list[Expected]:
    """Strongly regular graphs whose parameters, spectra and |Aut| are known.

    Sources: Brouwer and Van Maldeghem, Strongly Regular Graphs (2022),
    chapter 1; Godsil and Royle, Algebraic Graph Theory, chapter 10.
    |Aut P(p)| = p(p-1)/2 for prime p; |Aut L2(n)| = 2 (n!)^2;
    |Aut T(n)| = n! for n >= 5; Petersen 120, Clebsch 1920, Shrikhande 192.
    """
    out = []
    for p in (5, 13, 17, 29, 37):
        out.append(_srg(f"paley-{p}", paley(p), (p, (p - 1) // 2, (p - 5) // 4, (p - 1) // 4),
                        p * (p - 1) // 2))
    for n in (4, 5, 6, 7, 9):
        out.append(_srg(f"rook-{n}", rook(n), (n * n, 2 * (n - 1), n - 2, 2),
                        2 * math.factorial(n) ** 2))
    for n in (5, 6, 7, 8, 10):
        out.append(_srg(f"triangular-{n}", triangular(n), (n * (n - 1) // 2, 2 * (n - 2), n - 2, 4),
                        math.factorial(n)))
    out.append(_srg("petersen", petersen(), (10, 3, 0, 1), 120))
    out.append(_srg("clebsch", clebsch(), (16, 5, 0, 2), 1920))
    out.append(_srg("shrikhande", shrikhande(), (16, 6, 2, 2), 192))
    return out


def isolated_plus_triangle() -> Expected:
    """Eight isolated vertices followed by a triangle: spectrum {2, 0^8, -1^2}."""
    return Expected("isolated-8-plus-triangle", from_edges(11, [(8, 9), (9, 10), (8, 10)]),
                    spectrum=((2, 1), (0, 8), (-1, 2)))


def paper_graphs() -> list[Expected]:
    """The five graphs of the paper, equal to the program's named graphs."""
    gamma = cayley(connection_s1())
    gamma_s2 = cayley(connection_s2())
    sigma = matrix_perm(switching_matrix())
    delta = gamma[sigma]
    gamma_k2 = strong_product_k2(gamma)
    delta_k2 = gamma_k2[lift(sigma)]
    return [
        Expected("gamma", gamma, srg=(243, 22, 1, 2), spectrum=GAMMA_SPECTRUM,
                 aut_order=GAMMA_AUT, deza=(243, 22, 2, 1)),
        Expected("gamma-s2", gamma_s2, srg=(243, 22, 1, 2), spectrum=GAMMA_SPECTRUM,
                 aut_order=GAMMA_AUT, deza=(243, 22, 2, 1)),
        Expected("delta", delta, spectrum=DELTA_SPECTRUM, aut_order=DELTA_AUT,
                 deza=(243, 22, 2, 1), strict=True, extra={"sigma": sigma}),
        Expected("gamma-k2", gamma_k2, spectrum=GAMMA_K2_SPECTRUM,
                 deza=(486, 45, 44, 4), strict=True, ddg_params=(243, 2, 44, 4)),
        Expected("delta-k2", delta_k2, spectrum=DELTA_K2_SPECTRUM,
                 deza=(486, 45, 44, 4), strict=True, ddg_params=(243, 2, 44, 4)),
    ]


def relabel(e: Expected, rng: np.random.Generator) -> Expected:
    """A copy under a random vertex permutation: new label of u is perm[u]."""
    perm = rng.permutation(e.adj.shape[0])
    inv = np.argsort(perm)
    out = Expected(**{**e.__dict__})
    out.adj = e.adj[np.ix_(inv, inv)]
    out.extra = {}
    return out


def write_graph6(adj: np.ndarray, path: Path) -> bytes:
    data = nx.to_graph6_bytes(nx.from_numpy_array(adj.astype(np.int8)), header=False)
    path.write_bytes(data)
    return data
