"""Ternary Golay code constructions.

The [11, 6, 5] ternary Golay code is presented by an explicit 5x11 parity
check matrix H. Its 22 signed columns, read as vectors of V(5, 3), form the
second connection set; the coset graph of the code on the 3^5 syndromes is
the same strongly regular graph as the Cayley graph on that set. Matrices
are gf3.matrix arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf3 import ConnectionSet, all_vectors, indices_of, kernel_basis, matrix, rank
from .graphcore import Graph, cayley


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


def parity_check_H() -> np.ndarray:
    """The 5x11 parity check matrix of the ternary Golay code."""
    return matrix(_H_ROWS)


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A linear code over GF(3) held as its full codeword list: a read-only
    array with one word a row, in lexicographic order."""

    length: int
    parity_check: np.ndarray
    codewords: np.ndarray

    @property
    def dimension(self) -> int:
        return self.length - rank(self.parity_check)

    def __len__(self) -> int:
        return len(self.codewords)

    def minimum_distance(self) -> int:
        """Minimum nonzero Hamming weight, by exhaustive scan."""
        weights = np.count_nonzero(self.codewords, axis=1)
        return int(weights[weights > 0].min())


def code_from_parity_check(h: np.ndarray) -> LinearCode:
    """Enumerate the kernel of H as a LinearCode.

    Spans a basis of the null space, so the word count is exactly
    3^(n - rank H). Raises RankDeficientError when H has dependent rows,
    reporting the corrected dimension, and ArithmeticError when the
    enumerated words are not 3^dim distinct members of the kernel.
    """
    h_rank = rank(h)
    if h_rank != len(h):
        raise RankDeficientError(len(h), h_rank)
    basis = kernel_basis(h)
    dim = len(basis)
    words = all_vectors(dim) @ basis % 3
    # counted in sorted order: np.unique loads numpy.ma, and base-3 codes of
    # the words would wrap int64 from length 40 on
    ordered = words[np.lexsort(words.T[::-1])]
    distinct = 1 + np.count_nonzero((ordered[1:] != ordered[:-1]).any(axis=1))
    if distinct != 3**dim:
        raise ArithmeticError(f"kernel basis spans {distinct} words, not 3^{dim}")
    outside = np.flatnonzero((words @ h.T % 3).any(axis=1))
    if outside.size:
        w = tuple(words[outside[0]].tolist())
        raise ArithmeticError(f"enumerated word {w} is not in the kernel of H")
    ordered.setflags(write=False)
    return LinearCode(length=h.shape[1], parity_check=h, codewords=ordered)


def connection_set_S2() -> ConnectionSet:
    """The 22 signed columns of H, as vectors of V(5, 3).

    A duplicate signed column would mean the embedded matrix is corrupt, so
    that is a hard error rather than a certificate failure.
    """
    h = parity_check_H()
    s2 = ConnectionSet(np.concatenate([h.T, -h.T % 3]))
    if len(s2) != 2 * h.shape[1]:
        raise AssertionError("signed parity-check columns are not distinct")
    return s2


def pair_sums_cover(s2: ConnectionSet) -> bool:
    """True iff signed column pair sums fill V(5,3) minus S2 exactly.

    The sums x + y over distinct signed-column directions must produce 220
    distinct nonzero vectors, disjoint from S2; with |S2| = 22 they then
    exhaust all 242 nonzero vectors.
    """
    i, j = np.triu_indices(len(s2), 1)
    sums = np.zeros(3**s2.dimension, dtype=bool)
    sums[indices_of((s2.vectors[i] + s2.vectors[j]) % 3)] = True
    # a pair x, -x sums to zero and stands for no direction
    sums[0] = False
    return not sums[s2.indices].any() and int(sums.sum()) == sums.size - 1 - len(s2)


def coset_graph(code: LinearCode) -> Graph:
    """Coset graph of the code on its 3^5 syndromes.

    Vertices are syndromes H v^T under the shared ternary codec; cosets are
    adjacent iff they differ by the coset of a weight-1 word, so this is the
    Cayley graph on the signed columns of the code's parity check matrix.
    """
    h = code.parity_check
    eye = np.eye(code.length, dtype=np.int64)
    syndromes = np.concatenate([eye, 2 * eye]) @ h.T % 3
    return cayley(ConnectionSet(syndromes), label="golay-coset")

