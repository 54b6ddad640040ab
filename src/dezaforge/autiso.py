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
grows, and |Aut| is the product of the first path's orbit sizes. Seeds
enter through one Schreier-Sims chain whose base is the first path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .gf3 import (
    ConnectionSet,
    GF3Matrix,
    all_vectors,
    indices_of,
    invert,
    mat_mul,
    rank,
)
from .graphcore import Graph, _component_labels, automorphism_witness
from .permgroup import Permutation, StabilizerChain, group_order

VERTEX_CEILING = 1024


class SearchBudgetError(RuntimeError):
    """The automorphism search ran out of nodes or time.

    Carries the node count, the generators verified so far, and the exact
    order of the subgroup they generate, which is a certified lower bound
    on the full automorphism group order.
    """

    def __init__(
        self, nodes: int, lower_bound: int, generators: list[Permutation]
    ) -> None:
        self.nodes = nodes
        self.lower_bound = lower_bound
        self.generators = generators
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


def _check_automorphism(g: Graph, sigma: Permutation) -> None:
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

    @property
    def generator_count(self) -> int:
        return len(self.generators)

    def to_json(self) -> dict[str, Any]:
        return {
            "order": self.order,
            "generator_count": self.generator_count,
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
    src: np.ndarray,
    dst: np.ndarray,
    colours: np.ndarray,
    a2: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Equitable refinement with deterministic, covariant colour numbering.

    src and dst list the directed edges (both orientations of every edge), so
    each round counts neighbour colours with one bincount over the edge list.
    When a2 (the common-neighbour count matrix) is supplied, rows are also
    keyed by the counts against every singleton class, which cracks strongly
    regular graphs after the first individualization. colours must use every
    id in [0, max] and comes back unchanged once it is equitable.
    """
    v = colours.size
    if v == 0:
        return colours, 0
    ncol = int(colours.max()) + 1
    while True:
        counts = np.bincount(
            src * ncol + colours[dst], minlength=v * ncol
        ).reshape(v, ncol)
        pieces = [counts]
        if a2 is not None:
            sizes = np.bincount(colours, minlength=ncol)
            singleton_ids = np.flatnonzero(sizes == 1)
            if singleton_ids.size:
                order = np.argsort(colours, kind="stable")
                singleton_verts = order[
                    np.searchsorted(colours[order], singleton_ids)
                ]
                pieces.append(a2[:, singleton_verts])
        rest = np.column_stack(pieces) if len(pieces) > 1 else counts
        # the old colour leads the ranking, so a column constant inside every
        # old class changes neither the order nor the equalities of the rows
        rep = np.empty(ncol, dtype=np.intp)
        rep[colours] = np.arange(v)
        splits = (rest != rest[rep[colours]]).any(axis=0)
        if not splits.any():
            return colours, ncol
        colours, ncol = _canonical_ids(
            np.column_stack([colours, rest[:, splits]])
        )


def refine(g: Graph, colouring: Sequence[int]) -> list[int]:
    """Coarsest equitable refinement of the colouring.

    Vertices share a final colour iff they shared an initial colour and have
    identical multisets of neighbour colours at every refinement round.
    Colour numbering is deterministic (lexicographic in the per-round
    signatures), so equal inputs give byte-equal outputs.
    """
    if len(colouring) != g.v:
        raise ValueError("colouring length must equal the vertex count")
    if g.v == 0:
        return []
    colours, _ = _canonical_ids(
        np.asarray(list(colouring), dtype=np.int64).reshape(-1, 1)
    )
    src, dst = np.nonzero(g.adjacency)
    colours, _ = _refine(src, dst, colours)
    return [int(c) for c in colours]


def pair_invariant_colouring(g: Graph) -> list[int]:
    """Initial colouring from pair invariants.

    Each vertex is keyed by the sorted multiset of (adjacency,
    common-neighbour count) pairs against all other vertices. Plain
    refinement sees nothing on a strongly regular graph, while this
    invariant separates, for example, the 27 reversal-fixed vertices of the
    switched graph from the other 216.
    """
    if g.v == 0:
        return []
    return _pair_invariant_colours(g).tolist()


def _pair_invariant_colours(g: Graph) -> np.ndarray:
    """pair_invariant_colouring as an array, for a graph with vertices."""
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
    first_path[:levels[i]] pointwise. The seed chain's strong generators come
    first, then each automorphism found, at the depth where its branch left
    the first path.
    """

    def __init__(
        self,
        g: Graph,
        node_budget: int,
        time_budget: float | None,
        seeds: list[Permutation],
    ) -> None:
        self.g = g
        self.src, self.dst = np.nonzero(g.adjacency)
        self.a2 = g.square()
        self.v = g.v
        self.node_budget = node_budget
        self.deadline = (
            time.monotonic() + time_budget if time_budget is not None else None
        )
        self.seeds = seeds
        self.nodes = 0
        self.first_path: list[int] = []
        self.first_traces: list[tuple] = []
        self.first_leaf: np.ndarray | None = None
        self.gens: list[np.ndarray] = []
        self.levels: list[int] = []
        # the reported generators: the seeds the chain kept, then those found
        self.found: list[np.ndarray] = []
        # depth -> (count of generators at that level or deeper, orbit labels)
        self.orbits: dict[int, tuple[int, np.ndarray]] = {}

    def run(self, colours: np.ndarray, ncol: int) -> None:
        self._dfs(colours, ncol, 0, True, -1)

    def order(self) -> int:
        """|Aut|: the product of the first path's orbit sizes, once run."""
        order = 1
        for depth, point in enumerate(self.first_path):
            labels = self._labels(depth)
            order *= int(np.count_nonzero(labels == labels[point]))
        return order

    def _check_budget(self) -> None:
        self.nodes += 1
        over_nodes = self.nodes > self.node_budget
        over_time = self.deadline is not None and time.monotonic() > self.deadline
        if over_nodes or over_time:
            # mid-search the levels need not form a strong generating set,
            # so the bound comes from one chain built here
            found = _sorted_perms(self.found)
            raise SearchBudgetError(
                self.nodes - 1, group_order(self.seeds + found), found
            )

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
            cached = self.orbits[depth] = (len(gens), _orbit_labels(self.v, gens))
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
            # the seeds' strong generators, levelled by the first path, start
            # the pruning list; the chain keeps only the seeds that are new
            chain = StabilizerChain(self.v, base=self.first_path)
            for s in self.seeds:
                if chain.add_generator(s.images):
                    self.found.append(s.images)
            if len(chain.base) > len(self.first_path):
                raise RuntimeError(
                    "a seed moves a point although it fixes the first path, "
                    "which the discrete first leaf rules out"
                )
            self.gens, self.levels = list(chain.strong_gens), list(chain.gen_level)
            return None
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
        self.found.append(perm.images)
        # everything else under this branch is generated by what is already
        # known, so resume at the deepest first-path ancestor
        return diverged_at


def automorphism_group(
    g: Graph,
    seeds: Iterable[Permutation] | None = None,
    node_budget: int = 1_000_000,
    time_budget: float | None = None,
) -> AutResult:
    """Generators and exact order of Aut(g) by individualization-refinement.

    Known automorphisms may be supplied as seeds; they are verified, then
    only prune the search, so the resulting order is seed-independent. A
    search exceeding node_budget nodes or time_budget seconds raises
    SearchBudgetError carrying the certified lower bound found so far.
    Graphs above VERTEX_CEILING vertices are refused.
    """
    if g.v > VERTEX_CEILING:
        raise ValueError(
            f"graph has {g.v} vertices, above the ceiling {VERTEX_CEILING}"
        )
    seed_list: list[Permutation] = []
    for s in seeds or []:
        if s.degree != g.v:
            raise ValueError("seed degree does not match the graph")
        _check_automorphism(g, s)
        if not s.is_identity():
            seed_list.append(s)
    if g.v == 0:
        return AutResult(order=1, generators=[], orbit_count=0, nodes_searched=0)
    search = _Search(g, node_budget, time_budget, seed_list)
    start, ncol = _refine(
        search.src, search.dst, _pair_invariant_colours(g), search.a2
    )
    search.run(start, ncol)
    generators = _sorted_perms(search.found)
    for p in generators:
        _check_automorphism(g, p)
    # all generators together: the depth-0 labels are Aut's orbits
    labels = search._labels(0)
    return AutResult(
        order=search.order(),
        generators=generators,
        orbit_count=int(np.count_nonzero(labels == np.arange(g.v))),
        nodes_searched=search.nodes,
    )


def _sorted_perms(found: Iterable[Sequence[int]]) -> list[Permutation]:
    """Found generators as permutations, in lexicographic order of images."""
    return sorted((Permutation(p) for p in found), key=lambda p: p.images.tolist())


def _orbit_labels(v: int, gens: Sequence[np.ndarray]) -> np.ndarray:
    """The smallest point of each point's orbit under the generated group."""
    if not gens:
        return np.arange(v)
    points = np.tile(np.arange(v), len(gens))
    return _component_labels(v, points, np.concatenate(gens))


def verify_subgroup(g: Graph, gens: Iterable[Permutation]) -> int:
    """Exact order of the subgroup generated by verified automorphisms.

    Every generator is first checked against the graph; a failure raises
    NotAnAutomorphismError with a witness pair. The returned order is a
    certified lower bound on |Aut(g)|; the empty list yields 1.
    """
    checked = list(gens)
    for s in checked:
        _check_automorphism(g, s)
    return group_order(checked)


def find_linear_cayley_isomorphism(
    sa: ConnectionSet, sb: ConnectionSet
) -> GF3Matrix | None:
    """Invertible L over GF(3) with Sa . L = Sb, or None if there is none.

    Fixes a basis inside Sa greedily (in sorted vector order) and runs a
    depth-first search over members of Sb, in sorted order, as the basis
    images. L carries Sa onto Sb iff every nonzero x has xL nonzero and in
    Sb exactly when x is in Sa. Depth d checks this, for all candidates at
    once, on every x whose top basis coordinate is d, so each nonzero vector
    is checked once and the first surviving full assignment is returned.
    Before the search, u.(xL) = (uL^T).x gives an invariant: L keeps the
    multiset of how many members each linear functional leaves nonzero.
    None does not prove the Cayley graphs non-isomorphic: only linear
    vertex maps are searched.
    """
    if sa.dimension != sb.dimension:
        raise ValueError("connection sets live in different dimensions")
    if len(sa) != len(sb):
        return None
    n = sa.dimension
    rows_a, rows_b = (np.array(sorted(s.vectors)) for s in (sa, sb))
    basis = rows_a[:0]
    for vec in rows_a:
        grown = np.vstack([basis, vec])
        if len(basis) < n and rank(GF3Matrix(grown)) == len(grown):
            basis = grown
    if len(basis) < n:
        raise ValueError("connection set does not span the space")

    def profile(rows: np.ndarray) -> np.ndarray:
        nonzero = (all_vectors(n) @ rows.T % 3 != 0).sum(axis=1)
        return np.bincount(nonzero, minlength=len(rows) + 1)

    if not np.array_equal(profile(rows_a), profile(rows_b)):
        return None
    in_a, in_b = (np.isin(np.arange(3**n), indices_of(r)) for r in (rows_a, rows_b))

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
        targets = indices_of(mapped.reshape(-1, n)).reshape(len(rows_b), -1)
        fits = ((targets != 0) & (in_b[targets] == in_a[sources])).all(axis=1)
        for c in np.flatnonzero(fits):
            found = dfs(np.vstack([images, rows_b[c]]))
            if found is not None:
                return found
        return None

    images = dfs(rows_b[:0])
    if images is None:
        return None
    return mat_mul(invert(GF3Matrix(basis)), GF3Matrix(images))
