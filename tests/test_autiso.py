import pytest

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
from dezaforge.gf3 import ConnectionSet, connection_set_s1, mat_vec_mul
from dezaforge.golay import connection_set_S2
from dezaforge.graphcore import from_edges
from dezaforge.permgroup import Permutation, identity_perm


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
