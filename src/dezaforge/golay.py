"""Ternary Golay code constructions.

The [11, 6, 5] ternary Golay code is presented by an explicit 5x11 parity
check matrix H. Its 22 signed columns, read as vectors of V(5, 3), form the
second connection set; the coset graph of the code on the 3^5 syndromes is
the same strongly regular graph as the Cayley graph on that set, and the
coordinate-reversal involution acts on it without moving any edge's
endpoints onto each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .gf3 import (
    ConnectionSet,
    GF3Matrix,
    GFVector,
    all_vectors,
    indices_of,
    kernel_basis,
    rank,
)
from .graphcore import Graph
from .permgroup import Permutation


class RankDeficientError(ValueError):
    """Parity check matrix does not have full row rank."""

    def __init__(self, expected_rank: int, actual_rank: int) -> None:
        self.expected_rank = expected_rank
        self.actual_rank = actual_rank
        super().__init__(
            f"parity check matrix has rank {actual_rank}, expected "
            f"{expected_rank}; the code dimension is "
            f"{expected_rank - actual_rank} larger than the row count suggests"
        )


# The 5x11 parity check matrix of the [11, 6, 5] ternary Golay code, in the
# standard form [B | I5] with first column all-ones (a classical presentation
# of this perfect code; see e.g. the parity check matrices tabulated in
# standard coding theory references).
_H_ROWS: tuple[tuple[int, ...], ...] = (
    (1, 1, 1, 2, 2, 0, 1, 0, 0, 0, 0),
    (1, 1, 2, 1, 0, 2, 0, 1, 0, 0, 0),
    (1, 2, 1, 0, 1, 2, 0, 0, 1, 0, 0),
    (1, 2, 0, 1, 2, 1, 0, 0, 0, 1, 0),
    (1, 0, 2, 2, 1, 1, 0, 0, 0, 0, 1),
)


def parity_check_H() -> GF3Matrix:
    """The 5x11 parity check matrix of the ternary Golay code."""
    return GF3Matrix(_H_ROWS)


@dataclass(frozen=True)
class LinearCode:
    """A linear code over GF(3) held as its full codeword list."""

    length: int
    parity_check: GF3Matrix
    codewords: tuple[GFVector, ...]

    @property
    def dimension(self) -> int:
        return self.length - rank(self.parity_check)

    def __len__(self) -> int:
        return len(self.codewords)

    def minimum_distance(self) -> int:
        """Minimum nonzero Hamming weight, by exhaustive scan."""
        return min(
            sum(1 for x in w if x) for w in self.codewords if any(w)
        )

    def weight_distribution(self) -> dict[int, int]:
        dist: dict[int, int] = {}
        for w in self.codewords:
            weight = sum(1 for x in w if x)
            dist[weight] = dist.get(weight, 0) + 1
        return dist


def code_from_parity_check(h: GF3Matrix) -> LinearCode:
    """Enumerate the kernel of H as a LinearCode.

    Spans a basis of the null space, so the word count is exactly
    3^(n - rank H). Raises RankDeficientError when H has dependent rows,
    reporting the corrected dimension, and ArithmeticError when the
    enumerated words are not 3^dim distinct members of the kernel.
    """
    h_rank = rank(h)
    if h_rank != h.rows:
        raise RankDeficientError(h.rows, h_rank)
    basis = kernel_basis(h)
    dim = len(basis)
    words = []
    arr = np.array(basis, dtype=np.int64) if basis else np.zeros((0, h.cols), np.int64)
    for coeffs in itertools.product(range(3), repeat=dim):
        word = np.zeros(h.cols, dtype=np.int64)
        for c, b in zip(coeffs, arr):
            word = (word + c * b) % 3
        words.append(tuple(int(x) for x in word))
    distinct = len(set(words))
    if distinct != 3**dim:
        raise ArithmeticError(f"kernel basis spans {distinct} words, not 3^{dim}")
    for w in words:
        if (h.array @ np.array(w, dtype=np.int64) % 3).any():
            raise ArithmeticError(f"enumerated word {w} is not in the kernel of H")
    return LinearCode(length=h.cols, parity_check=h, codewords=tuple(sorted(words)))


def connection_set_S2() -> ConnectionSet:
    """The 22 signed columns of H, as vectors of V(5, 3).

    A duplicate signed column would mean the embedded matrix is corrupt, so
    that is a hard error rather than a certificate failure.
    """
    h = parity_check_H().array
    vectors: list[GFVector] = []
    for j in range(h.shape[1]):
        col = tuple(int(x) for x in h[:, j])
        neg = tuple((-x) % 3 for x in col)
        vectors.append(col)
        vectors.append(neg)
    if len(set(vectors)) != 2 * h.shape[1]:
        raise AssertionError("signed parity-check columns are not distinct")
    return ConnectionSet.from_vectors(vectors)


def pair_sums_cover(s2: ConnectionSet) -> bool:
    """True iff signed column pair sums fill V(5,3) minus S2 exactly.

    The sums x + y over distinct signed-column directions must produce 220
    distinct nonzero vectors, disjoint from S2; with |S2| = 22 they then
    exhaust all 242 nonzero vectors.
    """
    base = sorted(s2)
    sums = set()
    for x, y in itertools.combinations(base, 2):
        if x == tuple((-c) % 3 for c in y):
            continue
        sums.add(tuple((a + b) % 3 for a, b in zip(x, y)))
    members = set(s2.vectors)
    if sums & members:
        return False
    if any(not any(v) for v in sums):
        return False
    return len(sums) == 3**s2.dimension - 1 - len(members)


def coset_graph(code: LinearCode) -> Graph:
    """Coset graph of the code on its 3^5 syndromes.

    Vertices are syndromes H v^T under the shared ternary codec; cosets are
    adjacent iff they differ by the coset of a weight-1 word, so this is the
    Cayley graph on the signed columns of the code's parity check matrix.
    """
    h = code.parity_check
    n = h.rows
    weight_one = []
    for j in range(code.length):
        for c in (1, 2):
            word = [0] * code.length
            word[j] = c
            weight_one.append(word)
    syndromes = {
        tuple(int(x) for x in (h.array @ np.array(w, dtype=np.int64)) % 3)
        for w in weight_one
    }
    size = 3**n
    adjacency = np.zeros((size, size), dtype=bool)
    vectors = all_vectors(n)
    for s in syndromes:
        shifted = (vectors + np.array(s, dtype=np.int64)) % 3
        adjacency[np.arange(size), indices_of(shifted)] = True
    return Graph(adjacency, label="golay-coset")


def reversal_perm(n: int = 5) -> Permutation:
    """Coordinate reversal (a,b,c,d,e) -> (e,d,c,b,a) on vertex indices."""
    return Permutation(indices_of(all_vectors(n)[:, ::-1]))


def reversal_difference_shapes(s2: ConnectionSet) -> Iterator[GFVector]:
    """All vectors of shape (a-e, b-d, 0, d-b, e-a) that lie in S2.

    The reversal argument needs this to be empty: a vector v - v^r always
    has that shape, and none of them is a connection vector, so the reversal
    never swaps two adjacent vertices.
    """
    members = set(s2.vectors)
    for a, b in itertools.product(range(3), range(3)):
        shape = (a, b, 0, (-b) % 3, (-a) % 3)
        if shape in members:
            yield shape
