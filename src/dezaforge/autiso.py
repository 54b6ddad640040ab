"""Automorphism groups by individualization-refinement; linear isomorphism
search between Cayley presentations.

Equitable colour refinement alone cannot split a strongly regular graph, so
the search starts from a colouring enriched with a pair invariant: for each
vertex, the multiset of (adjacency, common-neighbour count) patterns against
all other vertices. Each refinement round counts neighbour colours with one
bincount over the directed edge list and ranks only the count columns that
split an old colour class. Backtracking individualization-refinement then
discovers automorphisms as pairs of leaves with identical refinement traces.
An automorphism found below depth d of the first search path fixes the
path's first d points and moves point d out of the orbits pruned so far, so
each depth's generators form a strong generating set for the first path
(McKay 1981; McKay & Piperno 2014): siblings are pruned by the orbits of
the generators of their depth or deeper, recomputed only when that set
grows, and |Aut| is the product of the first path's orbit sizes.
Refinement is isomorphism-invariant, so the automorphisms fixing the first
d path points keep depth d's target cell, and |Aut| is at most the product
of the first path's cell sizes. Seeds whose group order is known bound
|Aut| from below; when the two bounds meet at the first leaf, the search
ends there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import prod
from typing import Any, Iterable, Sequence

import numpy as np

from .gf3 import ConnectionSet, _row_reduce, all_vectors, indices_of, invert, matrix, rank
from .graphcore import Graph, automorphism_witness
from .permgroup import Permutation, orbit_labels

VERTEX_CEILING = 1024
# the search budget of every caller: the library, the pipeline and the CLI
NODE_BUDGET = 2_000_000
TIME_BUDGET = 1800.0


class SearchBudgetError(RuntimeError):
    """The automorphism search ran out of nodes or time.

    Carries the node count and a certified lower bound on |Aut|: the larger
    of the seeds' order and the product of the first path's orbit sizes
    under the automorphisms found so far. Each of those fixes the path above
    the depth where it was found, so the product is at most the order of
    the group they generate.
    """

    def __init__(self, nodes: int, lower_bound: int) -> None:
        self.nodes = nodes
        self.lower_bound = lower_bound
        super().__init__(
            f"search stopped after {nodes} nodes; |Aut| >= {lower_bound} "
            "from the generators found so far"
        )


class NotAnAutomorphismError(ValueError):
    """A claimed generator moved a pair off the adjacency relation."""

    def __init__(self, witness: tuple[int, int]) -> None:
        self.witness = witness
        u, w = witness
        super().__init__(
            f"permutation does not preserve adjacency at the pair ({u}, {w})"
        )


def check_automorphism(g: Graph, sigma: Permutation) -> None:
    """Raise NotAnAutomorphismError unless sigma preserves adjacency."""
    witness = automorphism_witness(g, sigma)
    if witness is not None:
        raise NotAnAutomorphismError(witness)


@dataclass
class AutResult:
    """Generators and exact order of a graph's automorphism group."""

    order: int
    generators: list[Permutation]
    orbit_count: int
    nodes_searched: int

    def to_json(self) -> dict[str, Any]:
        return {
            "order": self.order,
            "generator_count": len(self.generators),
            "generators": [g.to_json() for g in self.generators],
            "orbit_count": self.orbit_count,
            "nodes_searched": self.nodes_searched,
        }


def _canonical_ids(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ids, lexicographic by row content, and how many there are.

    Permutation-covariant; the ids equal the inverse of
    np.unique(rows, axis=0), at a fraction of its cost.
    """
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.ones(len(rows), dtype=np.int64)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    return ids, int(starts.sum())


def _refine(
    src: np.ndarray, dst: np.ndarray, colours: np.ndarray, a2: np.ndarray
) -> tuple[np.ndarray, int]:
    """Equitable refinement with deterministic, covariant colour numbering.

    src and dst list the directed edges (both orientations of every edge), so
    each round counts neighbour colours with one bincount over the edge list.
    Rows are also keyed by the common-neighbour counts a2 against every
    singleton class, which cracks strongly regular graphs after the first
    individualization. colours must use every id in [0, max] and comes back
    unchanged once it is equitable.
    """
    v = colours.size
    if v == 0:
        return colours, 0
    ncol = int(colours.max()) + 1
    while True:
        counts = np.bincount(
            src * ncol + colours[dst], minlength=v * ncol
        ).reshape(v, ncol)
        # rep[c] is a vertex of colour c, the only one when c is a singleton
        rep = np.empty(ncol, dtype=np.intp)
        rep[colours] = np.arange(v)
        singletons = rep[np.bincount(colours, minlength=ncol) == 1]
        rest = np.column_stack([counts, a2[:, singletons]])
        # the old colour leads the ranking, so a column constant inside every
        # old class changes neither the order nor the equalities of the rows
        splits = (rest != rest[rep[colours]]).any(axis=0)
        if not splits.any():
            return colours, ncol
        colours, ncol = _canonical_ids(
            np.column_stack([colours, rest[:, splits]])
        )


def _pair_invariant_colours(g: Graph) -> np.ndarray:
    """Initial colouring of a graph with vertices, from pair invariants.

    Each vertex is keyed by the sorted multiset of (adjacency,
    common-neighbour count) pairs against all other vertices. Plain
    refinement sees nothing on a strongly regular graph, while this
    invariant separates, for example, the 27 reversal-fixed vertices of the
    switched graph from the other 216.
    """
    # encode the pair (adjacency bit, common-neighbour count) injectively
    key = g.adjacency * (g.v + 1) + g.square()
    np.fill_diagonal(key, -1)
    return _canonical_ids(np.sort(key, axis=1))[0]


def _node_trace(colours: np.ndarray, ncol: int) -> tuple:
    return (ncol, tuple(np.bincount(colours, minlength=ncol).tolist()))


def _target_cell(colours: np.ndarray, ncol: int) -> list[int] | None:
    """Smallest non-singleton colour class, lowest colour index on ties."""
    sizes = np.bincount(colours, minlength=ncol)
    eligible = np.flatnonzero(sizes > 1)
    if eligible.size == 0:
        return None
    best = eligible[int(np.argmin(sizes[eligible]))]
    return np.flatnonzero(colours == best).tolist()


class _Search:
    """One individualization-refinement run over a fixed graph.

    Pruning uses gens with their levels: generator i fixes
    first_path[:levels[i]] pointwise, for the depth where its branch left
    the first path. cells holds the size of each target cell on the first
    path; if they multiply to seed_order, the order of a verified group of
    automorphisms, the first leaf ends the search and settled is set.
    """

    def __init__(
        self, g: Graph, node_budget: int, time_budget: float, seed_order: int = 1
    ) -> None:
        self.g = g
        self.src, self.dst = g.arcs()
        self.a2 = g.square()
        self.v = g.v
        self.node_budget = node_budget
        self.deadline = time.monotonic() + time_budget
        self.seed_order = seed_order
        self.settled = False
        self.nodes = 0
        self.first_path: list[int] = []
        self.cells: list[int] = []
        self.first_traces: list[tuple] = []
        self.first_leaf: np.ndarray | None = None
        self.gens: list[np.ndarray] = []
        self.levels: list[int] = []
        # depth -> (count of generators at that level or deeper, orbit labels)
        self.orbits: dict[int, tuple[int, np.ndarray]] = {}

    def run(self, colours: np.ndarray, ncol: int) -> None:
        self._dfs(colours, ncol, 0, True, -1)

    def order(self) -> int:
        """The product of the first path's orbit sizes: |Aut| once run, and
        at most the order of the generators' group before that."""
        order = 1
        for depth, point in enumerate(self.first_path):
            labels = self._labels(depth)
            order *= int(np.count_nonzero(labels == labels[point]))
        return order

    def _check_budget(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget or time.monotonic() > self.deadline:
            bound = max(self.seed_order, self.order())
            raise SearchBudgetError(self.nodes - 1, bound)

    def _dfs(
        self,
        colours: np.ndarray,
        ncol: int,
        depth: int,
        on_first: bool,
        diverged_at: int,
    ) -> int | None:
        """Explore one node; return a backjump depth or None when exhausted."""
        self._check_budget()
        trace = _node_trace(colours, ncol)
        if on_first:
            self.first_traces.append(trace)
        elif (
            depth >= len(self.first_traces) or trace != self.first_traces[depth]
        ):
            # no leaf below can match the first leaf's refinement trace
            return None
        cell = _target_cell(colours, ncol)
        if cell is None:
            return self._leaf(colours, diverged_at)
        if on_first:
            self.cells.append(len(cell))
        processed: list[int] = []
        first_candidate = True
        for cand in cell:
            if on_first and not first_candidate and self._pruned(
                cand, depth, processed
            ):
                continue
            child = colours.copy()
            child[cand] = ncol
            child, child_ncol = _refine(self.src, self.dst, child, self.a2)
            if on_first and first_candidate:
                self.first_path.append(cand)
                jump = self._dfs(child, child_ncol, depth + 1, True, -1)
            else:
                jump = self._dfs(
                    child,
                    child_ncol,
                    depth + 1,
                    False,
                    depth if on_first else diverged_at,
                )
            processed.append(cand)
            first_candidate = False
            if jump is not None and jump < depth:
                return jump
        return None

    def _labels(self, depth: int) -> np.ndarray:
        """Orbit labels of the generators that fix first_path[:depth]."""
        gens = [g for g, lv in zip(self.gens, self.levels) if lv >= depth]
        # generators are only appended, so the count names the set
        cached = self.orbits.get(depth)
        if cached is None or cached[0] != len(gens):
            cached = self.orbits[depth] = (len(gens), orbit_labels(self.v, gens))
        return cached[1]

    def _pruned(self, cand: int, depth: int, processed: list[int]) -> bool:
        """True when cand lies in the orbit of an already-explored candidate
        under the found stabilizer of the first path's depth-prefix."""
        labels = self._labels(depth)
        return bool((labels[processed] == labels[cand]).any())

    def _leaf(self, colours: np.ndarray, diverged_at: int) -> int | None:
        mapping = np.empty(self.v, dtype=np.intp)
        mapping[colours] = np.arange(self.v)
        if self.first_leaf is None:
            self.first_leaf = mapping
            # seed_order <= |Aut| <= the cell product, so equality proves it;
            # a jump above the root unwinds the whole search
            self.settled = prod(self.cells) == self.seed_order
            return -1 if self.settled else None
        images = np.empty(self.v, dtype=np.intp)
        images[self.first_leaf] = mapping
        perm = Permutation(images)
        if automorphism_witness(self.g, perm) is not None:
            # refinement-equivalent leaf that is not an automorphism
            return None
        # it maps first_path[diverged_at] to a sibling outside the orbits of
        # the candidates processed there, so the group grows
        self.gens.append(perm.images)
        self.levels.append(diverged_at)
        # everything else under this branch is generated by what is already
        # known, so resume at the deepest first-path ancestor
        return diverged_at


def automorphism_group(
    g: Graph,
    seeds: Iterable[Permutation] | None = None,
    node_budget: int = NODE_BUDGET,
    time_budget: float = TIME_BUDGET,
    seed_order: int = 1,
) -> AutResult:
    """Generators and exact order of Aut(g) by individualization-refinement.

    Known automorphisms may be supplied as seeds, with seed_order the order
    of the group they generate; the seeds are verified, and seed_order is
    trusted. Their group bounds |Aut| from below and the first path's cells
    bound it from above, so when the cell sizes multiply to seed_order the
    search ends at the first leaf and reports the seeds as generators.
    Otherwise the search runs as an unseeded one, and its order is read from
    the first path's orbits. A search exceeding node_budget nodes or
    time_budget seconds raises SearchBudgetError carrying a certified lower
    bound. Graphs above VERTEX_CEILING vertices are refused.
    """
    if g.v > VERTEX_CEILING:
        raise ValueError(
            f"graph has {g.v} vertices, above the ceiling {VERTEX_CEILING}"
        )
    seed_list = list(seeds or [])
    for s in seed_list:
        check_automorphism(g, s)
    if g.v == 0:
        return AutResult(order=1, generators=[], orbit_count=0, nodes_searched=0)
    search = _Search(g, node_budget, time_budget, seed_order)
    start, ncol = _refine(
        search.src, search.dst, _pair_invariant_colours(g), search.a2
    )
    search.run(start, ncol)
    if search.settled:
        images = [s.images for s in seed_list]
        generators = _sorted_perms(images)
        labels = orbit_labels(g.v, images)
        order = seed_order
    else:
        generators = _sorted_perms(search.gens)
        for p in generators:
            check_automorphism(g, p)
        # all generators together: the depth-0 labels are Aut's orbits
        labels = search._labels(0)
        order = search.order()
    return AutResult(
        order=order,
        generators=generators,
        orbit_count=int(np.count_nonzero(labels == np.arange(g.v))),
        nodes_searched=search.nodes,
    )


def _sorted_perms(found: Iterable[Sequence[int]]) -> list[Permutation]:
    """Found generators as permutations, in lexicographic order of images."""
    return sorted((Permutation(p) for p in found), key=lambda p: p.images.tolist())


def find_linear_cayley_isomorphism(
    sa: ConnectionSet, sb: ConnectionSet
) -> np.ndarray | None:
    """Invertible L over GF(3) with Sa . L = Sb, or None if there is none.

    Fixes a basis inside Sa greedily in sorted vector order (the pivot
    columns of the members stacked as columns) and runs a depth-first search
    over members of Sb, in sorted order, as the basis images. L carries Sa
    onto Sb iff every nonzero x has xL nonzero and in Sb exactly when x is
    in Sa. Depth d checks this, for all candidates at once, on every x whose
    top basis coordinate is d, so each nonzero vector is checked once and
    the first surviving full assignment is returned.
    Before the search, u.(xL) = (uL^T).x gives an invariant: L keeps the
    multiset of how many members each linear functional leaves nonzero.
    Past half the nonzero vectors the complements are searched, when they
    span: L carries Sa onto Sb iff it carries the complements onto each other.
    None does not prove the Cayley graphs non-isomorphic: only linear
    vertex maps are searched.
    """
    if sa.dimension != sb.dimension:
        raise ValueError("connection sets live in different dimensions")
    if len(sa) != len(sb):
        return None
    n = sa.dimension
    if 2 * len(sa) > 3**n - 1:
        ca, cb = (np.delete(all_vectors(n), [0, *s.indices], axis=0) for s in (sa, sb))
        if len(ca) and rank(ca) == n:
            return find_linear_cayley_isomorphism(ConnectionSet(ca), ConnectionSet(cb))
    rows_a, rows_b = sa.vectors, sb.vectors
    basis = rows_a[_row_reduce(rows_a.T)[1]]
    if len(basis) < n:
        raise ValueError("connection set does not span the space")

    def profile(rows: np.ndarray) -> np.ndarray:
        nonzero = (all_vectors(n) @ rows.T % 3 != 0).sum(axis=1)
        return np.bincount(nonzero, minlength=len(rows) + 1)

    if not np.array_equal(profile(rows_a), profile(rows_b)):
        return None
    in_a, in_b = (np.isin(np.arange(3**n), s.indices) for s in (sa, sb))

    def dfs(images: np.ndarray) -> np.ndarray | None:
        d = len(images)
        if d == n:
            return images
        # coordinates over the basis of every vector whose top coordinate is d
        coords = all_vectors(d + 1)
        coords = coords[coords[:, d] != 0]
        sources = indices_of(coords @ basis[: d + 1] % 3)
        # targets[c, j]: the image of source j when rows_b[c] is basis[d]'s image
        mapped = (coords[:, :d] @ images + coords[:, d:] * rows_b[:, None]) % 3
        targets = indices_of(mapped)
        fits = ((targets != 0) & (in_b[targets] == in_a[sources])).all(axis=1)
        for c in np.flatnonzero(fits):
            found = dfs(np.vstack([images, rows_b[c]]))
            if found is not None:
                return found
        return None

    images = dfs(rows_b[:0])
    if images is None:
        return None
    return matrix(invert(basis) @ images % 3)
