import itertools

import pytest

from dezaforge.catalog import (
    GRAPH_NAMES,
    UnknownGraphError,
    build_graph,
    c5_reflection,
    centralizer_pair,
    involutions_for,
    known_generators,
    lifted_switching_involution,
    matrix_group,
    negated_switching_involution,
    negation_involution,
    petersen_transposition,
    switching_involution,
    switching_matrix,
)
from dezaforge.gf3 import (
    GF3Matrix,
    M11_GEN_A,
    M11_GEN_B,
    fixed_space_dimension,
    identity,
    mat_mul,
)
from dezaforge.graphcore import classify_involution_pairs, is_automorphism
from dezaforge.permgroup import group_order, is_involution, perm_from_matrix


def test_build_graph_names():
    sizes = {
        "gamma": (243, 2673),
        "gamma-s2": (243, 2673),
        "delta": (243, 2673),
        "gamma-k2": (486, 10935),
        "delta-k2": (486, 10935),
        "petersen": (10, 15),
        "c5": (5, 5),
    }
    assert set(GRAPH_NAMES) == set(sizes)
    for name, (v, e) in sizes.items():
        g = build_graph(name)
        assert g.v == v
        assert g.edge_count() == e
        assert g.label == name


def test_build_graph_unknown():
    with pytest.raises(UnknownGraphError):
        build_graph("gamma-s3")


def test_matrix_group_order():
    group = matrix_group()
    assert len(group) == 7920
    x = switching_matrix()
    assert (group == x.array).all(axis=(1, 2)).any()


def test_switching_matrix_is_involution_with_27_fixed_vectors():
    x = switching_matrix()
    assert mat_mul(x, x) == identity(5)
    assert fixed_space_dimension(x) == 3  # 3^3 = 27 fixed vertices


def test_gamma_involution_classifications(gamma):
    expected = {
        "negation": {"fixed": 1, "adjacent_swaps": 11, "nonadjacent_swaps": 110},
        "switching": {"fixed": 27, "adjacent_swaps": 0, "nonadjacent_swaps": 108},
        "negated-switching": {"fixed": 9, "adjacent_swaps": 27, "nonadjacent_swaps": 90},
    }
    for name, perm in involutions_for("gamma").items():
        assert is_involution(perm)
        assert is_automorphism(gamma, perm)
        assert classify_involution_pairs(gamma, perm) == expected[name]


def test_all_registered_involutions_are_involutive_automorphisms():
    for name in GRAPH_NAMES:
        g = build_graph(name)
        for perm in involutions_for(name).values():
            assert is_involution(perm)
            assert is_automorphism(g, perm)


def test_lifted_switching_classification(gamma_k2):
    counts = classify_involution_pairs(gamma_k2, lifted_switching_involution())
    assert counts == {"fixed": 54, "adjacent_swaps": 0, "nonadjacent_swaps": 216}


def test_petersen_and_c5_involutions(petersen, c5):
    assert classify_involution_pairs(petersen, petersen_transposition()) == {
        "fixed": 4,
        "adjacent_swaps": 0,
        "nonadjacent_swaps": 3,
    }
    assert classify_involution_pairs(c5, c5_reflection()) == {
        "fixed": 1,
        "adjacent_swaps": 1,
        "nonadjacent_swaps": 1,
    }


def test_known_generators_orders():
    assert group_order(known_generators("gamma")) == 3_849_120
    assert group_order(known_generators("delta")) == 2592
    assert known_generators("petersen") == []


def test_centralizer_pair_commutes_with_switching():
    x = switching_matrix()
    c1, c2 = centralizer_pair()
    assert mat_mul(c1, x) == mat_mul(x, c1)
    assert mat_mul(c2, x) == mat_mul(x, c2)


def test_negated_switching_is_the_composition():
    from dezaforge.permgroup import compose

    left = compose(negation_involution(), switching_involution())
    assert left == negated_switching_involution()


def test_involutions_for_unknown():
    with pytest.raises(UnknownGraphError):
        involutions_for("not-a-graph")


def test_switching_matrix_fixed_space_is_checked_under_optimization(run_optimized):
    result = run_optimized("""
        from dezaforge import catalog
        catalog.fixed_space_dimension = lambda m: 2
        try:
            catalog.switching_matrix()
        except ArithmeticError as exc:
            print("raised:", exc)
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("raised:")


def test_matrix_group_is_sorted_and_closed():
    group = matrix_group()
    flat = group.reshape(len(group), -1).tolist()
    assert all(a < b for a, b in zip(flat, flat[1:]))
    members = {m.tobytes() for m in group}
    for gen in (M11_GEN_A, M11_GEN_B):
        assert {m.tobytes() for m in group @ gen.array % 3} == members


def test_group_selections_match_a_loop_over_the_group():
    # reference: one matrix product at a time, in the group's sorted order
    mats = [GF3Matrix(m) for m in matrix_group()]
    ident = identity(5)
    x = next(m for m in mats if m != ident and mat_mul(m, m) == ident)
    assert x == switching_matrix()
    cent = [m for m in mats if mat_mul(m, x) == mat_mul(x, m)]
    assert len(cent) == 48
    perms = [perm_from_matrix(m) for m in cent]
    pair = next(
        (cent[i], cent[j])
        for i, j in itertools.combinations(range(len(cent)), 2)
        if group_order([perms[i], perms[j]]) == len(cent)
    )
    assert pair == centralizer_pair()
