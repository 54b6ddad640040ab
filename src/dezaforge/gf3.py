"""Exact arithmetic over GF(3): vectors, matrices and connection sets.

Vectors of V(n,3) are the rows of integer arrays with residues in {0,1,2}.
Each vector has a canonical vertex index (little-endian base 3), and all
graph modules exchange indices rather than raw vectors. A matrix is a plain
read-only int64 array, checked once by matrix(); products are `a @ b % 3`.
Matrices act on row vectors from the right, v -> v*M; the convention is
pinned by a self-check in catalog.connection_set_s1().
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np


class InvalidElementError(ValueError):
    """A coordinate or entry is not a residue in {0,1,2}."""


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


class InvalidConnectionSetError(ValueError):
    """A connection set violates inverse-closure or contains the zero vector."""


def matrix(entries: Iterable[Iterable[int]]) -> np.ndarray:
    """entries as a read-only int64 array, checked to be a rectangle of
    residues in {0,1,2}. Every matrix the package stores, and every vector
    table it takes from a caller, passes through it."""
    try:
        a = np.array(entries, dtype=np.int64)
    except ValueError:  # ragged rows
        raise ShapeError("matrix entries must form a rectangle") from None
    if a.ndim != 2:
        raise ShapeError("matrix entries must form a rectangle")
    if not ((a >= 0) & (a <= 2)).all():
        raise InvalidElementError("matrix entries must be residues in {0,1,2}")
    a.setflags(write=False)
    return a


@lru_cache(maxsize=8)
def all_vectors(n: int) -> np.ndarray:
    """All 3^n vectors as a (3^n, n) array; row i holds the base-3 digits
    of i, least significant first, so coordinate j of row i is i // 3^j % 3."""
    powers = 3 ** np.arange(n, dtype=np.int64)
    a = np.arange(3**n, dtype=np.int64)[:, None] // powers % 3
    a.setflags(write=False)
    return a


def indices_of(vectors: np.ndarray) -> np.ndarray:
    """The canonical vertex index of each vector along the last axis: the
    sum of vector[i] * 3^i."""
    return vectors @ 3 ** np.arange(vectors.shape[-1], dtype=np.int64)


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


def rank(m: np.ndarray) -> int:
    """Rank over GF(3) by exact Gaussian elimination."""
    return len(_row_reduce(m)[1])


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse over GF(3); raises ValueError for singular input."""
    n, cols = m.shape
    if n != cols:
        raise ShapeError("only square matrices can be inverted")
    reduced, pivots = _row_reduce(np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1))
    # [M | I] has rank n; M is invertible iff every pivot lies in M's columns
    if pivots != list(range(n)):
        raise ValueError("matrix is singular over GF(3)")
    return matrix(reduced[:, n:])


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Basis of the right kernel {v : M v = 0} over GF(3), one vector a row."""
    reduced, pivots = _row_reduce(m)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -reduced[: len(pivots), free].T % 3
    return basis


def fixed_space_basis(m: np.ndarray) -> np.ndarray:
    """Basis of the row-action fixed space {v : v*M = v}."""
    n, cols = m.shape
    if n != cols:
        raise ShapeError("fixed space requires a square matrix")
    return kernel_basis((m - np.eye(n, dtype=np.int64)).T % 3)


class ConnectionSet:
    """Inverse-closed, identity-free set of vectors defining a Cayley graph.

    Holds its members once each as the rows of a read-only (size, n) array in
    lexicographic order, and their vertex indices, read-only and increasing.
    """

    __slots__ = ("vectors", "indices")

    def __init__(self, vectors: Iterable[Sequence[int]]) -> None:
        rows = [list(v) for v in vectors]
        if not rows:
            raise InvalidConnectionSetError("connection set must be non-empty")
        a = matrix(rows)
        if not a.any(axis=1).all():
            raise InvalidConnectionSetError("connection set contains the zero vector")
        a = a[np.lexsort(a.T[::-1])]
        a = a[np.r_[True, (a[1:] != a[:-1]).any(axis=1)]]
        indices = indices_of(a)
        missing = np.flatnonzero(~np.isin(indices_of(-a % 3), indices))
        if missing.size:
            v = tuple(a[missing[0]].tolist())
            raise InvalidConnectionSetError(f"additive inverse of {v} is missing")
        indices = np.sort(indices)
        for name, value in (("vectors", a), ("indices", indices)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ConnectionSet is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ConnectionSet is immutable; cannot delete {name!r}")

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.vectors)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConnectionSet) and np.array_equal(
            self.vectors, other.vectors
        )

    def __hash__(self) -> int:
        return hash((self.vectors.shape, self.vectors.tobytes()))

    def __repr__(self) -> str:
        return f"ConnectionSet({self.vectors.tolist()})"


# Standard generators of the Mathieu group M11 in its 5-dimensional
# representation over GF(3), as published in the ATLAS of Finite Group
# Representations. M11_GEN_A is an involution; M11_GEN_B has order 4.
M11_GEN_A = matrix([
    (0, 2, 1, 0, 0),
    (2, 1, 1, 2, 2),
    (0, 1, 1, 2, 2),
    (1, 0, 2, 2, 1),
    (1, 2, 2, 2, 0),
])

M11_GEN_B = matrix([
    (0, 0, 2, 0, 2),
    (1, 1, 2, 2, 0),
    (2, 2, 2, 2, 2),
    (1, 2, 1, 1, 0),
    (2, 2, 0, 2, 1),
])
