"""Automorphism groups by individualization-refinement; linear isomorphism
search between Cayley presentations.

Equitable colour refinement alone cannot split a strongly regular graph, so
the search starts from a colouring enriched with a pair invariant: for each
vertex, the multiset of (adjacency, common-neighbour count) patterns against
all other vertices. Backtracking individualization-refinement then discovers
automorphisms as pairs of leaves with identical refinement traces. Discovered
generators feed an exact stabilizer chain whose base is the first search
path, so sibling branches are pruned by orbits of the correct prefix
stabilizers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .gf3 import (
    ConnectionSet,
    GF3Matrix,
    GFVector,
    all_vectors,
    index_to_vector,
    indices_of,
    invert,
    mat_mul,
    mat_vec_mul,
    vector_to_index,
)
from .graphcore import Graph, automorphism_witness, exact_matmul
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
    adj: np.ndarray, colours: np.ndarray, a2: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Equitable refinement with deterministic, covariant colour numbering.

    When a2 (the common-neighbour count matrix) is supplied, rows are also
    keyed by the counts against every singleton class, which cracks strongly
    regular graphs after the first individualization.
    """
    v = adj.shape[0]
    if v == 0:
        return colours, 0
    ncol = int(colours.max()) + 1
    while True:
        onehot = np.zeros((v, ncol), dtype=bool)
        onehot[np.arange(v), colours] = True
        counts = exact_matmul(adj, onehot)
        pieces = [colours.reshape(-1, 1), counts]
        if a2 is not None:
            sizes = np.bincount(colours, minlength=ncol)
            singleton_ids = np.flatnonzero(sizes == 1)
            if singleton_ids.size:
                order = np.argsort(colours, kind="stable")
                singleton_verts = order[
                    np.searchsorted(colours[order], singleton_ids)
                ]
                pieces.append(a2[:, singleton_verts])
        colours, distinct = _canonical_ids(np.column_stack(pieces))
        if distinct == ncol:
            return colours, ncol
        ncol = distinct


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
    colours, _ = _refine(g.adjacency, colours)
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
    adj = g.adjacency
    return _pair_invariant_colours(adj, exact_matmul(adj, adj)).tolist()


def _pair_invariant_colours(adj: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """pair_invariant_colouring from the adjacency matrix and A^2."""
    # encode the pair (adjacency bit, common-neighbour count) injectively
    key = adj * (adj.shape[0] + 1) + a2
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
    """One individualization-refinement run over a fixed graph."""

    def __init__(
        self,
        g: Graph,
        a2: np.ndarray,
        node_budget: int,
        time_budget: float | None,
        seeds: list[Permutation],
    ) -> None:
        self.g = g
        self.adj = g.adjacency
        self.a2 = a2
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
        self.chain: StabilizerChain | None = None
        self.found: list[np.ndarray] = []

    def run(self, colours: np.ndarray, ncol: int) -> None:
        self._dfs(colours, ncol, 0, True, -1)

    def _lower_bound(self) -> int:
        if self.chain is not None:
            return self.chain.order()
        return group_order(self.seeds)

    def _check_budget(self) -> None:
        self.nodes += 1
        over_nodes = self.nodes > self.node_budget
        over_time = self.deadline is not None and time.monotonic() > self.deadline
        if over_nodes or over_time:
            raise SearchBudgetError(
                self.nodes - 1, self._lower_bound(), _sorted_perms(self.found)
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
            child, child_ncol = _refine(self.adj, child, self.a2)
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

    def _pruned(self, cand: int, depth: int, processed: list[int]) -> bool:
        """True when cand lies in the orbit of an already-explored candidate
        under the discovered stabilizer of the first path's depth-prefix."""
        if self.chain is None or not processed:
            return False
        gens = self.chain.gens_at_level(depth)
        if not gens:
            return False
        seen = set(processed)
        queue = list(processed)
        while queue:
            pt = queue.pop()
            for t in gens:
                img = t[pt]
                if img == cand:
                    return True
                if img not in seen:
                    seen.add(img)
                    queue.append(img)
        return False

    def _leaf(self, colours: np.ndarray, diverged_at: int) -> int | None:
        mapping = np.empty(self.v, dtype=np.intp)
        mapping[colours] = np.arange(self.v)
        if self.chain is None:
            self.first_leaf = mapping
            self.chain = StabilizerChain(self.v, base=self.first_path)
            for s in self.seeds:
                if self.chain.add_generator(s.images):
                    self.found.append(s.images)
            return None
        images = np.empty(self.v, dtype=np.intp)
        images[self.first_leaf] = mapping
        perm = Permutation(images)
        if automorphism_witness(self.g, perm) is not None:
            # refinement-equivalent leaf that is not an automorphism
            return None
        if self.chain.add_generator(perm.images):
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
        witness = automorphism_witness(g, s)
        if witness is not None:
            raise NotAnAutomorphismError(witness)
        if not s.is_identity():
            seed_list.append(s)
    if g.v == 0:
        return AutResult(order=1, generators=[], orbit_count=0, nodes_searched=0)
    adj = g.adjacency
    a2 = exact_matmul(adj, adj)
    search = _Search(g, a2, node_budget, time_budget, seed_list)
    start, ncol = _refine(adj, _pair_invariant_colours(adj, a2), a2)
    search.run(start, ncol)
    generators = _sorted_perms(search.found)
    for p in generators:
        witness = automorphism_witness(g, p)
        if witness is not None:
            raise NotAnAutomorphismError(witness)
    order = search.chain.order() if search.chain is not None else 1
    return AutResult(
        order=order,
        generators=generators,
        orbit_count=_orbit_count(g.v, generators),
        nodes_searched=search.nodes,
    )


def _sorted_perms(found: Iterable[Sequence[int]]) -> list[Permutation]:
    """Found generators as permutations, in lexicographic order of images."""
    return sorted((Permutation(p) for p in found), key=lambda p: p.images.tolist())


def _orbit_count(v: int, gens: Sequence[Permutation]) -> int:
    if v == 0:
        return 0
    seen = [False] * v
    count = 0
    for start in range(v):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = [start]
        while queue:
            pt = queue.pop()
            for t in gens:
                img = t(pt)
                if not seen[img]:
                    seen[img] = True
                    queue.append(img)
    return count


def verify_subgroup(g: Graph, gens: Iterable[Permutation]) -> int:
    """Exact order of the subgroup generated by verified automorphisms.

    Every generator is first checked against the graph; a failure raises
    NotAnAutomorphismError with a witness pair. The returned order is a
    certified lower bound on |Aut(g)|; the empty list yields 1.
    """
    checked = []
    for s in gens:
        witness = automorphism_witness(g, s)
        if witness is not None:
            raise NotAnAutomorphismError(witness)
        checked.append(s)
    return group_order(checked)


def find_linear_cayley_isomorphism(
    sa: ConnectionSet, sb: ConnectionSet
) -> GF3Matrix | None:
    """Invertible L over GF(3) with Sa . L = Sb, or None if none is found.

    Fixes a basis inside Sa greedily (in sorted vector order) and runs a
    depth-first search over tuples of Sb as candidate images. Branches are
    cut when the images become linearly dependent, when a pairwise
    sum/difference membership pattern disagrees between the two sets, when
    the candidate's pattern-count profile differs from the basis vector's,
    or when a set member already determined by the partial map would land
    outside Sb. A surviving full assignment determines L, which is verified
    against the complete sets before being returned. None does not prove
    the Cayley graphs non-isomorphic: only linear vertex maps are searched.
    """
    if sa.dimension != sb.dimension:
        raise ValueError("connection sets live in different dimensions")
    if len(sa) != len(sb):
        return None
    n = sa.dimension
    size = 3**n
    vectors = all_vectors(n)
    # index arithmetic tables: ADD[a, b] = index of vec_a + vec_b, NEG likewise
    sums = (vectors[:, None, :] + vectors[None, :, :]) % 3
    add_table = (
        indices_of(sums.reshape(-1, n)).reshape(size, size).astype(np.int64)
    )
    neg_table = indices_of((-vectors) % 3).astype(np.int64)

    sa_list = sorted(sa)
    sb_list = sorted(sb)
    sa_idx = [vector_to_index(v) for v in sa_list]
    sb_idx = [vector_to_index(v) for v in sb_list]
    sa_members = frozenset(sa_idx)
    sb_members = frozenset(sb_idx)

    def _profile(x: int, members: frozenset) -> tuple[int, int, int, int]:
        buckets = [0, 0, 0, 0]
        for y in members:
            plus = int(add_table[x, y]) in members
            minus = int(add_table[x, neg_table[y]]) in members
            buckets[2 * plus + minus] += 1
        return tuple(buckets)

    sb_profiles = {c: _profile(c, sb_members) for c in sb_idx}

    basis: list[GFVector] = []
    basis_idx: list[int] = []
    span: set[int] = {0}
    for vec in sa_list:
        vidx = vector_to_index(vec)
        if vidx in span:
            continue
        span |= {
            int(add_table[s, w])
            for s in span
            for w in (vidx, int(add_table[vidx, vidx]))
        }
        basis.append(vec)
        basis_idx.append(vidx)
        if len(basis) == n:
            break
    if len(basis) < n:
        raise ValueError("connection set does not span the space")

    # coordinates of every Sa member over the chosen basis; members whose
    # support ends at depth d become fully determined once img_d is chosen
    basis_inv = invert(GF3Matrix([list(b) for b in basis]))
    determined_at: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    for vec, vidx in zip(sa_list, sa_idx):
        coords = mat_vec_mul(vec, basis_inv)
        top = max(i for i in range(n) if coords[i])
        determined_at[top].append((vidx, coords))

    sa_patterns = [
        [
            (
                int(add_table[basis_idx[i], basis_idx[d]]) in sa_members,
                int(add_table[basis_idx[i], neg_table[basis_idx[d]]]) in sa_members,
            )
            for i in range(d)
        ]
        for d in range(n)
    ]
    sa_profiles = [_profile(b, sa_members) for b in basis_idx]

    chosen: list[int] = []
    span_stack: list[set[int]] = [{0}]

    def _combo(coords: tuple[int, ...]) -> int:
        acc = 0
        for coeff, img in zip(coords, chosen):
            if coeff:
                acc = int(add_table[acc, img])
                if coeff == 2:
                    acc = int(add_table[acc, img])
        return acc

    def dfs(depth: int) -> GF3Matrix | None:
        if depth == n:
            image_matrix = GF3Matrix(
                [list(index_to_vector(c, n)) for c in chosen]
            )
            candidate = mat_mul(basis_inv, image_matrix)
            image = frozenset(mat_vec_mul(vec, candidate) for vec in sa_list)
            return candidate if image == sb.vectors else None
        for cand in sb_idx:
            if cand in span_stack[-1]:
                continue
            if sb_profiles[cand] != sa_profiles[depth]:
                continue
            if any(
                (
                    int(add_table[chosen[i], cand]) in sb_members,
                    int(add_table[chosen[i], neg_table[cand]]) in sb_members,
                )
                != sa_patterns[depth][i]
                for i in range(depth)
            ):
                continue
            chosen.append(cand)
            if all(
                _combo(coords) in sb_members
                for _, coords in determined_at[depth]
            ):
                extended = span_stack[-1] | {
                    int(add_table[s, w])
                    for s in span_stack[-1]
                    for w in (cand, int(add_table[cand, cand]))
                }
                span_stack.append(extended)
                result = dfs(depth + 1)
                span_stack.pop()
                if result is not None:
                    chosen.pop()
                    return result
            chosen.pop()
        return None

    return dfs(0)
