"""Exact arithmetic over GF(3): vectors, matrices, orbits, connection sets.

Vectors of V(n,3) are plain tuples of residues in {0,1,2}. Each vector has a
canonical vertex index (little-endian base 3), and all graph modules exchange
indices rather than raw vectors. Matrices act on row vectors from the right,
v -> v*M; the convention is pinned by a self-check in connection_set_s1().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

GFVector = tuple[int, ...]


class InvalidElementError(ValueError):
    """A coordinate or entry is not a residue in {0,1,2}."""


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


class InvalidConnectionSetError(ValueError):
    """A connection set violates inverse-closure or contains the zero vector."""


def _check_vector(v: Sequence[int]) -> GFVector:
    t = tuple(int(c) for c in v)
    for c in t:
        if c not in (0, 1, 2):
            raise InvalidElementError(f"coordinate {c!r} is not in {{0,1,2}}")
    return t


class GF3Matrix:
    """Immutable r x c matrix with entries in {0,1,2}.

    Wraps a read-only numpy int array.
    """

    __slots__ = ("_a",)

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        if isinstance(entries, np.ndarray):
            a = entries.astype(np.int64)
        else:
            rows = [[int(c) for c in row] for row in entries]
            if len({len(r) for r in rows}) > 1:
                raise ShapeError("matrix entries must form a rectangle")
            a = np.array(rows, dtype=np.int64)
        if a.ndim != 2:
            raise ShapeError("matrix entries must form a rectangle")
        if not ((a >= 0) & (a <= 2)).all():
            raise InvalidElementError("matrix entries must be residues in {0,1,2}")
        a.setflags(write=False)
        self._a = a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def array(self) -> np.ndarray:
        """Read-only numpy view of the entries."""
        return self._a

    def row(self, i: int) -> GFVector:
        return tuple(int(c) for c in self._a[i])

    def column(self, j: int) -> GFVector:
        return tuple(int(c) for c in self._a[:, j])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF3Matrix)
            and self._a.shape == other._a.shape
            and bool((self._a == other._a).all())
        )

    def __repr__(self) -> str:
        body = ", ".join(str(self.row(i)) for i in range(self.rows))
        return f"GF3Matrix([{body}])"


def identity(n: int) -> GF3Matrix:
    return GF3Matrix(np.eye(n, dtype=np.int64))


def negate(m: GF3Matrix) -> GF3Matrix:
    """Entrywise additive inverse mod 3, i.e. the matrix of v -> -(v*M)."""
    return GF3Matrix((-m.array) % 3)


def vector_to_index(v: Sequence[int]) -> int:
    """Canonical vertex index of a vector: sum of coords[i] * 3^i.

    Coordinate 0 is the least significant ternary digit.
    """
    t = _check_vector(v)
    return sum(c * 3**i for i, c in enumerate(t))


def index_to_vector(index: int, n: int) -> GFVector:
    """Inverse of vector_to_index for vectors of length n."""
    if not 0 <= index < 3**n:
        raise InvalidElementError(f"index {index} out of range for 3^{n} vertices")
    return tuple((index // 3**i) % 3 for i in range(n))


@lru_cache(maxsize=8)
def all_vectors(n: int) -> np.ndarray:
    """All 3^n vectors as a (3^n, n) array, row i = index_to_vector(i, n)."""
    powers = 3 ** np.arange(n, dtype=np.int64)
    a = np.arange(3**n, dtype=np.int64)[:, None] // powers % 3
    a.setflags(write=False)
    return a


def indices_of(vectors: np.ndarray) -> np.ndarray:
    """Vectorized vector_to_index over the rows of an integer array."""
    n = vectors.shape[1]
    weights = 3 ** np.arange(n, dtype=np.int64)
    return vectors @ weights


def mat_vec_mul(v: Sequence[int], m: GF3Matrix) -> GFVector:
    """Row vector times matrix, exact mod 3."""
    t = _check_vector(v)
    if len(t) != m.rows:
        raise ShapeError(f"vector length {len(t)} != matrix rows {m.rows}")
    return tuple(int(c) for c in (np.array(t, dtype=np.int64) @ m.array) % 3)


def mat_mul(a: GF3Matrix, b: GF3Matrix) -> GF3Matrix:
    """Matrix product, exact mod 3."""
    if a.cols != b.rows:
        raise ShapeError(f"cols {a.cols} != rows {b.rows}")
    return GF3Matrix(a.array @ b.array % 3)


def _row_reduce(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a over GF(3), and its pivot columns."""
    a = a % 3
    rows, cols = a.shape
    pivots: list[int] = []
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i, col]), None)
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        # scale pivot row to 1 (2 is its own inverse mod 3)
        a[r] = a[r] * pow(int(a[r, col]), -1, 3) % 3
        for i in range(rows):
            if i != r and a[i, col]:
                a[i] = (a[i] - a[i, col] * a[r]) % 3
        pivots.append(col)
    return a, pivots


def rank(m: GF3Matrix) -> int:
    """Rank over GF(3) by exact Gaussian elimination."""
    return len(_row_reduce(m.array)[1])


def invert(m: GF3Matrix) -> GF3Matrix:
    """Inverse over GF(3); raises ValueError for singular input."""
    if m.rows != m.cols:
        raise ShapeError("only square matrices can be inverted")
    n = m.rows
    reduced, pivots = _row_reduce(
        np.concatenate([m.array, np.eye(n, dtype=np.int64)], axis=1)
    )
    # [M | I] has rank n; M is invertible iff every pivot lies in M's columns
    if pivots != list(range(n)):
        raise ValueError("matrix is singular over GF(3)")
    return GF3Matrix(reduced[:, n:])


def fixed_space_dimension(m: GF3Matrix) -> int:
    """Dimension of the space of vectors fixed by v -> v*M.

    The number of fixed vectors is 3 to this power.
    """
    return len(fixed_space_basis(m))


def kernel_basis(m: GF3Matrix) -> list[GFVector]:
    """Basis of the right kernel {v : M v = 0} over GF(3)."""
    reduced, pivots = _row_reduce(m.array)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        vec = np.zeros(m.cols, dtype=np.int64)
        vec[f] = 1
        for i, p in enumerate(pivots):
            vec[p] = (-reduced[i, f]) % 3
        basis.append(tuple(int(x) for x in vec))
    return basis


def fixed_space_basis(m: GF3Matrix) -> list[GFVector]:
    """Basis of the row-action fixed space {v : v*M = v}."""
    if m.rows != m.cols:
        raise ShapeError("fixed space requires a square matrix")
    diff = (m.array - np.eye(m.rows, dtype=np.int64)) % 3
    return kernel_basis(GF3Matrix(diff.T % 3))


def orbit(generators: Sequence[GF3Matrix], seed: Sequence[int]) -> frozenset[GFVector]:
    """Smallest set containing seed and closed under v -> v*g for every g.

    Plain breadth-first closure; generators need not be invertible for the
    closure to be well defined, but group orbits assume they are.
    """
    start = _check_vector(seed)
    for g in generators:
        if g.rows != g.cols or g.rows != len(start):
            raise ShapeError("orbit generators must be square of the seed's length")
    seen: set[GFVector] = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for g in generators:
                w = mat_vec_mul(v, g)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


@dataclass(frozen=True)
class ConnectionSet:
    """Inverse-closed, identity-free set of vectors defining a Cayley graph."""

    dimension: int
    vectors: frozenset[GFVector] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for v in self.vectors:
            if len(v) != self.dimension:
                raise InvalidConnectionSetError(
                    f"vector {v} does not have dimension {self.dimension}"
                )
            _check_vector(v)
            if not any(v):
                raise InvalidConnectionSetError("connection set contains the zero vector")
            neg = tuple((-c) % 3 for c in v)
            if neg not in self.vectors:
                raise InvalidConnectionSetError(f"additive inverse of {v} is missing")

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[int]]) -> "ConnectionSet":
        vs = frozenset(_check_vector(v) for v in vectors)
        if not vs:
            raise InvalidConnectionSetError("connection set must be non-empty")
        dim = len(next(iter(vs)))
        return cls(dim, vs)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(sorted(self.vectors))


# Standard generators of the Mathieu group M11 in its 5-dimensional
# representation over GF(3), as published in the ATLAS of Finite Group
# Representations. M11_GEN_A is an involution; M11_GEN_B has order 4.
M11_GEN_A = GF3Matrix([
    (0, 2, 1, 0, 0),
    (2, 1, 1, 2, 2),
    (0, 1, 1, 2, 2),
    (1, 0, 2, 2, 1),
    (1, 2, 2, 2, 0),
])

M11_GEN_B = GF3Matrix([
    (0, 0, 2, 0, 2),
    (1, 1, 2, 2, 0),
    (2, 2, 2, 2, 2),
    (1, 2, 1, 1, 0),
    (2, 2, 0, 2, 1),
])

# The unique 22-point orbit of M11 on the nonzero vectors of V(5,3),
# listed as eleven +- pairs. The remaining 220 nonzero vectors form the
# other orbit. This set is the connection set of the Berlekamp-Van
# Lint-Seidel graph in its Cayley presentation.
_S1_BASE: tuple[GFVector, ...] = (
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
)


@lru_cache(maxsize=1)
def connection_set_s1() -> ConnectionSet:
    """The 22-vector M11 orbit as a connection set.

    Recomputes the orbit of (1,0,0,0,0) under the right action of the M11
    generators and insists it equal the embedded table. This pins the
    row-vector convention: under the transposed action the orbit would not
    reproduce the table, and construction fails loudly.
    """
    table = frozenset(
        v for base in _S1_BASE for v in (base, tuple((-c) % 3 for c in base))
    )
    computed = orbit([M11_GEN_A, M11_GEN_B], (1, 0, 0, 0, 0))
    if computed != table:
        raise AssertionError(
            "M11 orbit of (1,0,0,0,0) does not match the embedded 22-vector table; "
            "matrix action convention is wrong"
        )
    return ConnectionSet(5, table)
