"""The graph type, every graph construction in the pipeline, and the exact
integer matrix product that every certificate's arithmetic goes through.

Graphs are dense, symmetric, loop-free bit matrices over an indexed vertex
set. Adjacency is held as a read-only numpy boolean matrix.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from . import gf3
from .permgroup import Permutation, is_involution


_FLOAT32_EXACT = 2**24
_FLOAT64_EXACT = 2**53
_INT64_MAX = int(np.iinfo(np.int64).max)


class SwitchingInapplicableError(ValueError):
    """A dual Seidel switching precondition failed; the message names it."""


class Graph6ParseError(ValueError):
    """Malformed graph6 input; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Immutable simple graph on vertices 0..v-1."""

    __slots__ = ("_adj", "_square", "_derive_square", "_arcs", "label")

    def __init__(self, adjacency: np.ndarray, label: str = "") -> None:
        a = np.asarray(adjacency, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if a.diagonal().any():
            raise ValueError("adjacency has a loop")
        if not (a == a.T).all():
            raise ValueError("adjacency is not symmetric")
        a = a.copy()
        a.setflags(write=False)
        self._adj = a
        self._square: np.ndarray | None = None
        self._derive_square: Callable[[], np.ndarray] | None = None
        self._arcs: tuple[np.ndarray, np.ndarray] | None = None
        self.label = label

    # -- basic queries -------------------------------------------------------

    @property
    def v(self) -> int:
        return self._adj.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix."""
        return self._adj

    def int_adjacency(self) -> np.ndarray:
        """Adjacency as a fresh int64 0/1 matrix for exact products."""
        return self._adj.astype(np.int64)

    def square(self) -> np.ndarray:
        """Read-only A^2, the common-neighbour count of every vertex pair.

        Formed on first use and kept, as the graph is immutable. Its dtype is
        the smallest unsigned one that holds v, which cannot wrap: an entry
        counts neighbours of one vertex, at most v - 1. The switch and the K2
        product set _derive_square, which reads it from their input's instead.
        """
        if self._square is None:
            if self._derive_square is None:
                dtype = np.min_scalar_type(self.v)
                self._square = exact_matmul(self._adj, self._adj).astype(dtype)
            else:
                self._square, self._derive_square = self._derive_square(), None
            self._square.setflags(write=False)
        return self._square

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only np.nonzero(A), each edge in both orientations; kept."""
        if self._arcs is None:
            self._arcs = np.nonzero(self._adj)
            for half in self._arcs:
                half.setflags(write=False)
        return self._arcs

    def is_regular(self) -> bool:
        degs = self._adj.sum(axis=1)
        return bool((degs == degs[0]).all()) if self.v else True

    def degree(self) -> int:
        """Common degree of a regular graph."""
        if not self.is_regular():
            raise ValueError("graph is not regular")
        return int(self._adj[0].sum()) if self.v else 0

    def edge_count(self) -> int:
        return int(self._adj.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        us, ws = np.nonzero(np.triu(self._adj, 1))
        return list(zip(us.tolist(), ws.tolist()))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.v == other.v
            and bool((self._adj == other._adj).all())
        )

    def __hash__(self) -> int:
        return hash((self.v, self._adj.tobytes()))

    def __repr__(self) -> str:
        name = f" {self.label!r}" if self.label else ""
        return f"Graph(v={self.v}, edges={self.edge_count()}{name})"


# ---------------------------------------------------------------------------
# Exact integer products
# ---------------------------------------------------------------------------


def _abs_max(x: np.ndarray) -> int:
    """Largest absolute entry as a Python int; np.abs would wrap int64 min."""
    if x.dtype.kind in "bu":  # no negative entry, so one pass serves
        return int(x.max(initial=0))
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _product_path(left: np.ndarray, right: np.ndarray) -> str:
    """Arithmetic that computes left @ right exactly: float32, float64, int64
    or object.

    Every partial sum of entry (i, k) is a sum of some of the terms
    left[i, j] * right[j, k], so its absolute value is at most the absolute
    row sum of left times the largest absolute entry of right, at most
    left_max * inner * right_max; the row sums are read only when that coarse
    bound is not below 2^24. The bound is formed in Python ints, so it cannot
    wrap. Below 2^p, for p the significand
    bits of a float format (24 for float32, 53 for float64), every term,
    partial sum and input entry that matters is an integer that format holds
    exactly, in whatever order BLAS adds (Ozaki, Ogita, Oishi & Rump, Numer.
    Algorithms 59 (2012)); up to the int64 maximum int64 cannot overflow.
    """
    if left.dtype == object or right.dtype == object:
        return "object"
    inner = left.shape[-1]
    if left.dtype == bool and right.dtype == bool:
        # every term is 0 or 1, so no pass over the data is needed
        bound = inner
    else:
        left_max, right_max = _abs_max(left), _abs_max(right)
        bound = left_max * inner * right_max
        if bound >= _FLOAT32_EXACT and left_max * inner <= _INT64_MAX:
            # each absolute row sum is at most left_max * inner, so none wraps
            rows = int(np.abs(left).sum(axis=-1, dtype=np.int64).max(initial=0))
            bound = rows * right_max
    if bound < _FLOAT32_EXACT:
        return "float32"
    if bound < _FLOAT64_EXACT:
        return "float64"
    if bound <= _INT64_MAX:
        return "int64"
    return "object"


def exact_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Exact product of integer (or boolean) arrays, int64 or object dtype.

    Uses float32 or float64 BLAS when a bound proves the product exact in
    that format, int64 when it cannot overflow, and Python integers in
    object arrays otherwise.
    """
    path = _product_path(left, right)
    if path in ("float32", "float64"):
        lf = left.astype(path)
        rf = lf if right is left else right.astype(path)
        return (lf @ rf).astype(np.int64)
    if path == "int64":
        return left.astype(np.int64, copy=False) @ right.astype(np.int64, copy=False)
    return left.astype(object) @ right.astype(object)


def from_edges(v: int, edges: Iterable[tuple[int, int]], label: str = "") -> Graph:
    a = np.zeros((v, v), dtype=bool)
    for u, w in edges:
        if u == w:
            raise ValueError("loops are not allowed")
        if not (0 <= u < v and 0 <= w < v):
            raise ValueError(f"edge ({u}, {w}) is out of range for {v} vertices")
        a[u, w] = a[w, u] = True
    return Graph(a, label)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def cayley(s: gf3.ConnectionSet, label: str = "") -> Graph:
    """Cayley graph of (V(n,3), +) with connection set s, n = s.dimension.

    Vertices are the canonical ternary indices; i ~ j iff vector(i) -
    vector(j) lies in s. The result is |s|-regular.
    """
    vv = gf3.all_vectors(s.dimension)
    a = np.zeros((len(vv), len(vv)), dtype=bool)
    # row i holds the index of vector(i) + x for every member x of s
    a[np.arange(len(vv))[:, None], gf3.indices_of((vv[:, None] + s.vectors) % 3)] = True
    return Graph(a, label)


def _k2_square(g: Graph) -> np.ndarray:
    """A'^2 = 2(A^2 + A) (x) J_2 + I for g[K2]'s A' = (A + I) (x) J_2 - I. No
    entry exceeds 2v - 1, so the dtype of 2v holds it."""
    half = 2 * (g.square().astype(np.min_scalar_type(2 * g.v)) + g.adjacency)
    return np.kron(half, np.ones((2, 2), half.dtype)) + np.eye(2 * g.v, dtype=half.dtype)


def strong_product_K2(g: Graph, label: str = "") -> Graph:
    """Strong product with a single edge: each vertex is doubled.

    Vertex (u, copy) has index 2u + copy; (u,i) ~ (w,j) iff u = w and i != j,
    or u ~ w: the adjacency is (A + I) (x) J_2 - I. A k-regular input yields
    a (2k+1)-regular product.
    """
    a = np.kron(g.adjacency | np.eye(g.v, dtype=bool), np.ones((2, 2), dtype=bool))
    np.fill_diagonal(a, False)
    product = Graph(a, label)
    product._derive_square = lambda: _k2_square(g)
    return product


def automorphism_witness(g: Graph, sigma: Permutation) -> tuple[int, int] | None:
    """None when sigma preserves adjacency, else the first pair it violates.

    A bijection that maps every arc to an arc preserves the edge set; only
    on failure is A compared in full with A permuted by sigma.
    """
    if sigma.degree != g.v:
        raise ValueError(f"permutation degree {sigma.degree} != v = {g.v}")
    p = sigma.images
    src, dst = g.arcs()
    if g.adjacency[p[src], p[dst]].all():
        return None
    moved = g.adjacency[np.ix_(p, p)] != g.adjacency
    u, w = np.argwhere(moved)[0]
    return int(u), int(w)


def is_automorphism(g: Graph, sigma: Permutation) -> bool:
    """True iff sigma preserves adjacency."""
    return automorphism_witness(g, sigma) is None


def _adjacent_swaps(g: Graph, sigma: Permutation) -> int:
    """2-cycles {u, sigma(u)} of an involution whose endpoints are adjacent.

    Each such pair is counted from both ends; fixed points add nothing,
    since the graph is loop-free.
    """
    return int(g.adjacency[np.arange(g.v), sigma.images].sum()) // 2


def involution_pair_counts(g: Graph, sigma: Permutation) -> dict[str, int]:
    """Counts of fixed points and 2-cycles of an involutive automorphism.

    Each 2-cycle {u, sigma(u)} is classified by whether its endpoints are
    adjacent, so fixed + 2*(adjacent_swaps + nonadjacent_swaps) = v. sigma
    is not checked here: callers pass one they have already checked.
    """
    fixed = len(sigma.fixed_points())
    adjacent = _adjacent_swaps(g, sigma)
    return {
        "fixed": fixed,
        "adjacent_swaps": adjacent,
        "nonadjacent_swaps": (g.v - fixed) // 2 - adjacent,
    }


def dual_seidel_switch(g: Graph, sigma: Permutation, label: str = "") -> Graph:
    """Replace the adjacency matrix M by PM for the involution sigma.

    Preconditions checked here, in order:
      * sigma is a non-identity involution,
      * sigma is an automorphism of g,
      * sigma interchanges only non-adjacent vertices (no adjacent swaps;
        this is exactly what keeps PM loop-free),
      * if g is strongly regular with parameters (v,k,lambda,mu), then
        k != mu and lambda != mu (otherwise the switch cannot produce a
        two-valued common-neighbour structure distinct from the input).

    The strong-regularity test is conditional because the switch is also
    applied to graphs that are already Deza but not strongly regular; for
    those inputs the structural preconditions above are the meaningful ones.

    Row u of PM is row sigma(u) of M: the switched neighbourhood of u is
    the original neighbourhood of sigma(u) (of u itself when fixed). As
    PM = MP, (PM)^2 = M^2, so the output shares g's A^2.
    """
    if sigma.degree != g.v:
        raise SwitchingInapplicableError("permutation degree does not match graph")
    if not is_involution(sigma):
        raise SwitchingInapplicableError("sigma is not a non-identity involution")
    if not is_automorphism(g, sigma):
        raise SwitchingInapplicableError("sigma is not an automorphism")
    adjacent = _adjacent_swaps(g, sigma)
    if adjacent:
        raise SwitchingInapplicableError(
            f"sigma swaps {adjacent} adjacent pairs; "
            "only non-adjacent interchanges are allowed"
        )
    # certify imports this module, so the import is deferred to the call
    from .certify import _srg_parameters

    srg = _srg_parameters(g)
    if srg.passed and srg.k == srg.mu:
        raise SwitchingInapplicableError(f"strongly regular input has k = mu = {srg.k}")
    if srg.passed and srg.lam == srg.mu:
        raise SwitchingInapplicableError(
            f"strongly regular input has lambda = mu = {srg.mu}"
        )
    switched = Graph(g.adjacency[sigma.images], label)
    switched._derive_square = g.square
    return switched


def lift_involution_to_product(sigma: Permutation) -> Permutation:
    """Lift an involution on v points to the doubled vertex set of g[K2].

    The copy-preserving lift (u, i) -> (sigma(u), i) is used. The
    copy-swapping alternative (u, i) -> (sigma(u), 1-i) is not an admissible
    switching involution: on every fixed vertex of sigma it would swap the
    two adjacent clones.
    """
    # row u holds the images of (u, 0) and (u, 1), at indices 2u and 2u + 1
    return Permutation((2 * sigma.images[:, None] + np.arange(2)).reshape(-1))


# ---------------------------------------------------------------------------
# graph6 and edge-list serialization
# ---------------------------------------------------------------------------


# a sixbit character holds six adjacency bits, the first one most significant
_SIXBIT_WEIGHTS = 1 << np.arange(5, -1, -1)


@lru_cache(maxsize=16)
def _graph6_bit_order(v: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each graph6 bit: the upper triangle, column by
    column. Kept per v, read-only."""
    cols, rows = np.tril_indices(v, -1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def to_graph6(g: Graph) -> str:
    """Encode in graph6 format; the 4-byte extended header covers v > 62."""
    v = g.v
    if v > 258047:
        raise ValueError("graph6 long form beyond 258047 vertices is not supported")
    if v <= 62:
        head = chr(v + 63)
    else:
        head = "~" + "".join(
            chr(((v >> shift) & 0x3F) + 63) for shift in (12, 6, 0)
        )
    rows, cols = _graph6_bit_order(v)
    bits = np.pad(g.adjacency[rows, cols], (0, -rows.size % 6))
    sixes = bits.reshape(-1, 6) @ _SIXBIT_WEIGHTS + 63
    return head + "".join(map(chr, sixes.tolist()))


_GRAPH6_HEADER = ">>graph6<<"


def from_graph6(text: str, label: str = "") -> Graph:
    """Decode a graph6 line; raises Graph6ParseError with a byte offset.

    The optional ">>graph6<<" header is accepted; offsets count from the
    first byte of the input stripped of ASCII space, tab, CR and LF, header
    included. Any other byte at either end is part of the line.
    """
    s = text.strip(" \t\r\n")
    start = len(_GRAPH6_HEADER) if s.startswith(_GRAPH6_HEADER) else 0
    if len(s) == start:
        raise Graph6ParseError("empty graph6 input", start)
    pos = start
    if s[pos] == "~":
        if len(s) > pos + 1 and s[pos + 1] == "~":
            raise Graph6ParseError("graph6 long form is not supported", pos + 1)
        if len(s) < pos + 4:
            raise Graph6ParseError("truncated extended vertex count", len(s))
        v = 0
        for pos in range(start + 1, start + 4):
            c = ord(s[pos]) - 63
            if not 0 <= c < 64:
                raise Graph6ParseError(f"invalid sixbit byte {s[pos]!r}", pos)
            v = (v << 6) | c
        pos = start + 4
    else:
        v = ord(s[pos]) - 63
        if not 0 <= v <= 62:
            raise Graph6ParseError(f"invalid vertex-count byte {s[pos]!r}", pos)
        pos += 1
    nbits = v * (v - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - pos != need:
        raise Graph6ParseError(
            f"expected {need} payload bytes for {v} vertices, got {len(s) - pos}",
            pos,
        )
    codes = np.fromiter(map(ord, s[pos:]), np.int64, need) - 63
    bad = np.flatnonzero((codes < 0) | (codes >= 64))
    if bad.size:
        at = pos + int(bad[0])
        raise Graph6ParseError(f"invalid sixbit byte {s[at]!r}", at)
    bits = (codes[:, None] & _SIXBIT_WEIGHTS).astype(bool).reshape(-1)
    if bits[nbits:].any():
        raise Graph6ParseError("nonzero padding bits", pos + need - 1)
    a = np.zeros((v, v), dtype=bool)
    rows, cols = _graph6_bit_order(v)
    a[rows, cols] = a[cols, rows] = bits[:nbits]
    return Graph(a, label)


def to_edge_list(g: Graph) -> str:
    """Zero-based 'u w' lines, one edge per line, lexicographic order."""
    return "\n".join(f"{u} {w}" for u, w in g.edges()) + ("\n" if g.edge_count() else "")
