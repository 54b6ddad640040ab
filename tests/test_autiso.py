import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dezaforge import autiso
from dezaforge.autiso import (
    NotAnAutomorphismError,
    SearchBudgetError,
    VERTEX_CEILING,
    automorphism_group,
    find_linear_cayley_isomorphism,
    pair_invariant_colouring,
    refine,
    verify_subgroup,
)
from dezaforge.catalog import AUT_ORDERS, build_graph, involutions_for, known_generators
from dezaforge.certify import certify_ddg
from dezaforge.gf3 import (
    ConnectionSet,
    GF3Matrix,
    all_vectors,
    connection_set_s1,
    indices_of,
    mat_vec_mul,
    rank,
)
from dezaforge.golay import connection_set_S2
from dezaforge.graphcore import Graph, exact_matmul, from_edges
from dezaforge.permgroup import Permutation, StabilizerChain, identity_perm


def test_refine_splits_path():
    path = from_edges(3, [(0, 1), (1, 2)])
    assert refine(path, [0, 0, 0]) == [0, 1, 0]


def test_refine_preserves_initial_distinctions():
    path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    colours = refine(path, [0, 0, 0, 1])
    assert colours[3] != colours[0]
    assert len(set(colours)) >= 3


def test_pair_invariant_colouring_is_automorphism_invariant(petersen):
    base = pair_invariant_colouring(petersen)
    # vertex-transitive, so the invariant cannot split anything
    assert len(set(base)) == 1


def test_automorphism_group_c5(c5):
    result = automorphism_group(c5)
    assert result.order == 10
    assert result.orbit_count == 1


def test_automorphism_group_petersen(petersen):
    result = automorphism_group(petersen)
    assert result.order == 120
    assert result.orbit_count == 1
    # every returned generator is a genuine automorphism and together
    # they generate the whole group
    assert verify_subgroup(petersen, result.generators) == 120


def test_automorphism_group_seed_independent(petersen):
    from dezaforge.catalog import petersen_transposition

    unseeded = automorphism_group(petersen)
    seeded = automorphism_group(petersen, seeds=[petersen_transposition()])
    assert unseeded.order == seeded.order == 120
    assert seeded.nodes_searched <= unseeded.nodes_searched


def test_automorphism_group_asymmetric_graph():
    # smallest asymmetric graphs have 6 vertices; this is one of them
    g = from_edges(6, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    assert automorphism_group(g).order == 1


def test_automorphism_group_rejects_bad_seed(petersen):
    bad = Permutation([1, 2, 0] + list(range(3, 10)))
    with pytest.raises(NotAnAutomorphismError):
        automorphism_group(petersen, seeds=[bad])


def test_automorphism_group_budget_exhaustion(petersen):
    with pytest.raises(SearchBudgetError) as info:
        automorphism_group(petersen, node_budget=1)
    assert info.value.lower_bound >= 1
    assert info.value.nodes >= 1


@pytest.mark.parametrize("name", ["delta", "petersen"])
def test_budget_stop_bound_covers_the_seeds(name):
    # delta's catalogue seeds generate all 2592 automorphisms, so every stop
    # must report 2592; petersen, seeded with one transposition, also stops
    # after the first leaf, once the search's own chain exists
    g = build_graph(name)
    seeds = known_generators(name) or list(involutions_for(name).values())
    seed_order = verify_subgroup(g, seeds)
    finished = automorphism_group(g, seeds=seeds)
    assert finished.order == AUT_ORDERS[name]
    for budget in range(finished.nodes_searched + 1):
        try:
            result = automorphism_group(g, seeds=seeds, node_budget=budget)
        except SearchBudgetError as exc:
            assert exc.lower_bound >= seed_order
        else:
            assert result.order == AUT_ORDERS[name]


def test_automorphism_group_vertex_ceiling():
    big = from_edges(VERTEX_CEILING + 1, [(0, 1)])
    with pytest.raises(ValueError):
        automorphism_group(big)


def test_automorphism_group_delta(delta):
    result = automorphism_group(delta)
    assert result.order == 2592
    assert result.orbit_count == 2


def test_automorphism_group_gamma(gamma):
    result = automorphism_group(gamma)
    assert result.order == 3_849_120
    assert result.orbit_count == 1


def test_verify_subgroup_orders(gamma, delta):
    assert verify_subgroup(gamma, known_generators("gamma")) == 3_849_120
    assert verify_subgroup(delta, known_generators("delta")) == 2592


def test_verify_subgroup_rejects_non_automorphism(petersen):
    sigma = Permutation([1, 2, 0] + list(range(3, 10)))
    with pytest.raises(NotAnAutomorphismError) as info:
        verify_subgroup(petersen, [sigma])
    u, w = info.value.witness
    assert petersen.has_edge(u, w) != petersen.has_edge(sigma(u), sigma(w))


def test_verify_subgroup_trivial(petersen):
    assert verify_subgroup(petersen, []) == 1
    assert verify_subgroup(petersen, [identity_perm(10)]) == 1


def test_find_linear_cayley_isomorphism_s1_to_s2():
    s1 = connection_set_s1()
    s2 = connection_set_S2()
    matrix = find_linear_cayley_isomorphism(s1, s2)
    assert matrix is not None
    assert frozenset(mat_vec_mul(v, matrix) for v in s1) == s2.vectors


def test_find_linear_cayley_isomorphism_identity_case():
    s1 = connection_set_s1()
    matrix = find_linear_cayley_isomorphism(s1, s1)
    assert matrix is not None
    assert frozenset(mat_vec_mul(v, matrix) for v in s1) == s1.vectors


def test_find_linear_cayley_isomorphism_negative():
    s1 = connection_set_s1()
    vecs = sorted(s1.vectors)
    drop = vecs[0]
    drop_neg = tuple((-x) % 3 for x in drop)
    cand = next(
        c
        for c in (
            (1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 0), (1, 0, 0, 0, 1),
            (0, 1, 1, 0, 0), (0, 1, 0, 1, 0),
        )
        if c not in s1.vectors
    )
    corrupted = ConnectionSet.from_vectors(
        (set(s1.vectors) - {drop, drop_neg}) | {cand, tuple((-x) % 3 for x in cand)}
    )
    assert find_linear_cayley_isomorphism(s1, corrupted) is None


def test_find_linear_cayley_isomorphism_size_mismatch():
    a = ConnectionSet.from_vectors([(1, 0, 0, 0, 0), (2, 0, 0, 0, 0)])
    s1 = connection_set_s1()
    assert find_linear_cayley_isomorphism(s1, a) is None


def test_find_linear_cayley_isomorphism_dimension_mismatch():
    a = ConnectionSet.from_vectors([(1, 0), (2, 0)])
    s1 = connection_set_s1()
    with pytest.raises(ValueError):
        find_linear_cayley_isomorphism(s1, a)


IDENTITY_5 = [[int(i == j) for j in range(5)] for i in range(5)]
PINNED_ISOMORPHISMS = {
    ("s1", "s1"): IDENTITY_5,
    ("s1", "s2"): [
        [1, 2, 0, 2, 1], [0, 0, 1, 1, 2], [0, 1, 2, 0, 1], [0, 0, 0, 2, 1],
        [0, 2, 1, 0, 0],
    ],
    ("s2", "s1"): [
        [1, 1, 0, 0, 2], [0, 1, 0, 1, 2], [0, 1, 0, 1, 0], [0, 0, 1, 2, 1],
        [0, 0, 1, 0, 1],
    ],
    ("s2", "s2"): IDENTITY_5,
}


@pytest.mark.parametrize("pair", sorted(PINNED_ISOMORPHISMS), ids="-".join)
def test_find_linear_cayley_isomorphism_pins_the_matrix(pair):
    # the search returns the first valid assignment in a fixed order, so the
    # certificate matrix in `run` and `iso` output is the same on every run
    sets = {"s1": connection_set_s1(), "s2": connection_set_S2()}
    matrix = find_linear_cayley_isomorphism(sets[pair[0]], sets[pair[1]])
    assert matrix is not None
    assert matrix.array.tolist() == PINNED_ISOMORPHISMS[pair]


def test_find_linear_cayley_isomorphism_rejects_a_non_spanning_source():
    # Sa spans only the plane x3 = 0; Sb spans V(3,3) and has the same size
    sa = ConnectionSet.from_vectors(
        [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0), (1, 1, 0), (2, 2, 0)]
    )
    sb = ConnectionSet.from_vectors(
        [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0), (0, 0, 1), (0, 0, 2)]
    )
    with pytest.raises(ValueError, match="does not span"):
        find_linear_cayley_isomorphism(sa, sb)


def _general_linear_group(n):
    """Every invertible n x n matrix over GF(3), as an (N, n, n) array."""
    entries = all_vectors(n * n).reshape(-1, n, n)
    return entries[np.rint(np.linalg.det(entries)).astype(np.int64) % 3 != 0]


GL = {n: _general_linear_group(n) for n in (2, 3)}


def _connection_set(n, reps):
    return ConnectionSet(
        n, frozenset(tuple(int(x) * s % 3 for x in r) for r in reps for s in (1, 2))
    )


@st.composite
def connection_set_pairs(draw):
    """Equal-size inverse-closed sets in V(n,3), n in {2, 3}; the first spans.

    The second is the first's image under an invertible matrix, or that
    image with one pair swapped out, so both answers of the search are
    exercised.
    """
    n = draw(st.sampled_from([2, 3]))
    # one representative per +-pair: the first nonzero coordinate is 1
    reps = [
        tuple(v)
        for v in all_vectors(n).tolist()
        if any(v) and v[np.flatnonzero(v)[0]] == 1
    ]
    # short of every pair, so a near miss has a pair to swap in
    sa_reps = draw(
        st.lists(
            st.sampled_from(reps), min_size=n, max_size=len(reps) - 1, unique=True
        ).filter(lambda vs: rank(GF3Matrix(vs)) == n)
    )
    m = GL[n][draw(st.integers(0, len(GL[n]) - 1))]
    # images scaled back to their pair's representative
    sb_reps = [
        tuple(int(x) for x in row * row[np.flatnonzero(row)[0]] % 3)
        for row in np.array(sa_reps) @ m % 3
    ]
    if draw(st.booleans()):
        # a near miss: one pair of the image swapped for a pair outside it
        sb_reps[draw(st.integers(0, len(sb_reps) - 1))] = draw(
            st.sampled_from([r for r in reps if r not in sb_reps])
        )
    return _connection_set(n, sa_reps), _connection_set(n, sb_reps)


@settings(max_examples=150, deadline=None)
@given(connection_set_pairs())
def test_find_linear_cayley_isomorphism_matches_brute_force(pair):
    sa, sb = pair
    n = sa.dimension
    sa_rows = np.array(sorted(sa.vectors))
    want = np.sort(indices_of(np.array(sorted(sb.vectors))))
    images = indices_of((sa_rows @ GL[n] % 3).reshape(-1, n))
    images = np.sort(images.reshape(len(GL[n]), -1))
    exists = bool((images == want).all(axis=1).any())
    matrix = find_linear_cayley_isomorphism(sa, sb)
    assert (matrix is not None) == exists
    if matrix is not None:
        assert rank(matrix) == n
        assert frozenset(mat_vec_mul(v, matrix) for v in sa) == sb.vectors


def test_generators_are_checked_under_optimization(run_optimized):
    # a search that reports the transposition (0 1), not an automorphism
    result = run_optimized("""
        from dezaforge import autiso
        from dezaforge.catalog import build_graph
        run = autiso._Search.run
        def run_and_err(self, colours, ncol):
            run(self, colours, ncol)
            self.found.append((1, 0, *range(2, 10)))
        autiso._Search.run = run_and_err
        try:
            autiso.automorphism_group(build_graph("petersen"))
        except autiso.NotAnAutomorphismError as exc:
            print("raised", exc.witness)
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("raised")


# few distinct values, so rows repeat; 2^53 and 2^53 + 1 collide as floats
ENTRIES = st.sampled_from(
    [-(2**63), -(2**53) - 1, -1, 0, 1, 2, 2**53, 2**53 + 1, 2**63 - 1]
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda rows: st.integers(1, 6).flatmap(
            lambda cols: arrays(np.int64, (rows, cols), elements=ENTRIES)
        )
    )
)
def test_canonical_ids_match_unique(rows):
    ids, count = autiso._canonical_ids(rows)
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(ids, inverse.reshape(-1))
    assert ids.dtype == np.int64
    assert count == len(uniq)


def test_search_and_certificates_do_not_call_unique(delta, delta_k2, unique_calls):
    # np.unique was half of every refinement search; keep it off these paths
    automorphism_group(delta)
    certify_ddg(delta_k2)
    assert len(unique_calls) == 0


def _reference_refine(adj, colours, a2=None):
    """_refine as a dense product and np.unique, for the oracle test only."""
    v = adj.shape[0]
    ncol = int(colours.max()) + 1
    while True:
        onehot = np.zeros((v, ncol), dtype=bool)
        onehot[np.arange(v), colours] = True
        pieces = [colours.reshape(-1, 1), exact_matmul(adj, onehot)]
        if a2 is not None:
            sizes = np.bincount(colours, minlength=ncol)
            singletons = [
                np.flatnonzero(colours == c)[0] for c in np.flatnonzero(sizes == 1)
            ]
            if singletons:
                pieces.append(a2[:, singletons])
        uniq, inverse = np.unique(
            np.column_stack(pieces), axis=0, return_inverse=True
        )
        colours = inverse.reshape(-1)
        if len(uniq) == ncol:
            return colours, ncol
        ncol = len(uniq)


@st.composite
def coloured_graphs(draw):
    v = draw(st.integers(1, 40))
    bits = draw(arrays(np.bool_, (v, v), elements=st.booleans()))
    adj = np.triu(bits, 1)
    k = draw(st.integers(1, v))
    raw = draw(arrays(np.int64, v, elements=st.integers(0, k - 1)))
    return Graph(adj | adj.T), np.unique(raw, return_inverse=True)[1].reshape(-1)


@settings(max_examples=200, deadline=None)
@given(coloured_graphs(), st.booleans())
def test_refine_matches_dense_reference(graph_and_colours, with_a2):
    g, colours = graph_and_colours
    a2 = g.square() if with_a2 else None
    src, dst = np.nonzero(g.adjacency)
    got, count = autiso._refine(src, dst, colours.copy(), a2)
    want, want_count = _reference_refine(g.adjacency, colours, a2)
    assert np.array_equal(got, want)
    assert count == want_count


def test_unseeded_search_multiplies_only_for_the_square(gamma, matmul_calls):
    inv = np.argsort((7 * np.arange(gamma.v) + 3) % gamma.v)
    relabelled = Graph(gamma.adjacency[np.ix_(inv, inv)])
    assert automorphism_group(relabelled).order == 3_849_120
    # refinement counts over the edge list; the one product is Graph.square's
    assert len(matmul_calls) == 1
    module, square = matmul_calls[0]
    assert module == "graphcore" and square is relabelled.adjacency


def test_pruning_orbits_follow_the_growing_chain():
    search = autiso._Search(from_edges(5, []), 100, None, [])
    # (1 2) fixes first-path point 0, so it prunes at depth 1
    search.gens.append(np.array([0, 2, 1, 3, 4]))
    search.levels.append(1)
    assert search._pruned(2, 1, [1])
    assert not search._pruned(3, 1, [1])
    assert 1 in search.orbits
    # (1 3) also has level 1, and merges 3 into 1's orbit
    search.gens.append(np.array([0, 3, 2, 1, 4]))
    search.levels.append(1)
    assert search._pruned(3, 1, [1])
    assert not search._pruned(4, 1, [1, 2])
    # a generator of level 1 moves first_path[1], so depth 2 does not use it
    assert not search._pruned(2, 2, [1])


def test_unseeded_search_makes_no_sift(petersen, delta, monkeypatch):
    # the found automorphisms are a strong generating set for the first path,
    # so the order is read from their orbits without a stabilizer chain
    calls = []
    sift = StabilizerChain.sift

    def counted(self, *args, **kwargs):
        calls.append(args)
        return sift(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "sift", counted)
    assert automorphism_group(petersen).order == 120
    assert automorphism_group(delta).order == 2592
    assert calls == []


def test_seed_chain_past_the_first_path_raises(petersen):
    from dezaforge.catalog import petersen_transposition

    search = autiso._Search(petersen, 100, None, [petersen_transposition()])
    # a first leaf at the root fixes every point, so no seed can fit its chain
    with pytest.raises(RuntimeError, match="first leaf"):
        search._leaf(np.arange(petersen.v), -1)


def _paley(p):
    squares = {x * x % p for x in range(1, p)}
    return from_edges(
        p, [(a, b) for a in range(p) for b in range(a + 1, p) if (b - a) % p in squares]
    )


@pytest.mark.parametrize("name", ["c5", "petersen", "paley-13", "delta"])
def test_any_subset_of_the_generators_as_seeds_gives_the_order(name):
    g = _paley(13) if name == "paley-13" else build_graph(name)
    unseeded = automorphism_group(g)
    assert unseeded.order == {"paley-13": 78, **AUT_ORDERS}[name]
    gens = unseeded.generators
    for size in range(len(gens) + 1):
        for seeds in itertools.combinations(gens, size):
            assert automorphism_group(g, seeds=seeds).order == unseeded.order


# every permutation of [0, v), one per row, for the brute-force oracle
ALL_PERMUTATIONS = {
    v: np.array(list(itertools.permutations(range(v))), dtype=np.intp).reshape(-1, v)
    for v in range(1, 7)
}


@st.composite
def small_relabelled_graphs(draw):
    v = draw(st.integers(1, 6))
    bits = draw(arrays(np.bool_, (v, v), elements=st.booleans()))
    adj = np.triu(bits, 1)
    return adj | adj.T, np.array(draw(st.permutations(range(v))), dtype=np.intp)


@settings(max_examples=200, deadline=None)
@given(small_relabelled_graphs())
def test_order_matches_brute_force_count(graph_and_relabelling):
    adj, relabelling = graph_and_relabelling
    perms = ALL_PERMUTATIONS[len(adj)]
    autos = perms[(adj[perms[:, :, None], perms[:, None, :]] == adj).all(axis=(1, 2))]
    orbit_count = len({int(autos[:, i].min()) for i in range(len(adj))})
    for labelled in (adj, adj[np.ix_(relabelling, relabelling)]):
        result = automorphism_group(Graph(labelled))
        assert result.order == len(autos)
        assert result.orbit_count == orbit_count


def test_automorphism_group_matches_closed_forms(monkeypatch):
    pytest.importorskip("networkx")
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    gen = pytest.importorskip("gen")
    family = gen.closed_form_family()
    assert len(family) == 18
    for i, e in enumerate(family):
        copy = gen.relabel(e, np.random.default_rng([17, i]))
        result = automorphism_group(Graph(copy.adj))
        assert result.order == e.aut_order, e.name
        assert verify_subgroup(Graph(copy.adj), result.generators) == e.aut_order


@st.composite
def permutation_sets(draw):
    """Up to three permutations of [0, v), each moving a random subset."""
    v = draw(st.integers(1, 30))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        moved = draw(st.lists(st.integers(0, v - 1), unique=True))
        images = np.arange(v)
        images[moved] = draw(st.permutations(moved))
        gens.append(images)
    return v, gens


@settings(max_examples=200, deadline=None)
@given(permutation_sets())
def test_orbit_labels_match_a_walk(v_and_gens):
    v, gens = v_and_gens
    labels = autiso._orbit_labels(v, gens)
    for start in range(v):
        orbit, queue = {start}, [start]
        while queue:
            pt = queue.pop()
            for g in gens:
                if g[pt] not in orbit:
                    orbit.add(int(g[pt]))
                    queue.append(int(g[pt]))
        assert labels[start] == min(orbit)
