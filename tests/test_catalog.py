import itertools

import numpy as np
import pytest

from dezaforge import catalog
from dezaforge.catalog import (
    GRAPH_NAMES,
    UnknownGraphError,
    affine_order,
    affine_seeds,
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
    fixed_space_basis,
    identity,
    mat_mul,
    negate,
    rank,
)
from dezaforge.graphcore import is_automorphism
from dezaforge.permgroup import (
    Permutation,
    is_involution,
    perm_from_matrix,
    translation_perm,
)
from dezaforge.pipeline import involution_row
from schreier_sims import group_order


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
    assert len(fixed_space_basis(x)) == 3  # 3^3 = 27 fixed vertices


def test_gamma_involution_classifications(gamma):
    expected = {
        "negation": {"fixed": 1, "adjacent_swaps": 11, "nonadjacent_swaps": 110},
        "switching": {"fixed": 27, "adjacent_swaps": 0, "nonadjacent_swaps": 108},
        "negated-switching": {"fixed": 9, "adjacent_swaps": 27, "nonadjacent_swaps": 90},
    }
    for name, perm in involutions_for("gamma").items():
        assert involution_row(gamma, perm) == (
            {"is_automorphism": True, "is_involution": True, **expected[name]},
            True,
        )


def test_all_registered_involutions_are_involutive_automorphisms():
    for name in GRAPH_NAMES:
        g = build_graph(name)
        for perm in involutions_for(name).values():
            assert is_involution(perm)
            assert is_automorphism(g, perm)


def test_lifted_switching_classification(gamma_k2):
    row, ok = involution_row(gamma_k2, lifted_switching_involution())
    assert ok
    assert (row["fixed"], row["adjacent_swaps"], row["nonadjacent_swaps"]) == (54, 0, 216)


def test_petersen_and_c5_involutions(petersen, c5):
    checked = {"is_automorphism": True, "is_involution": True}
    assert involution_row(petersen, petersen_transposition()) == (
        {**checked, "fixed": 4, "adjacent_swaps": 0, "nonadjacent_swaps": 3},
        True,
    )
    assert involution_row(c5, c5_reflection()) == (
        {**checked, "fixed": 1, "adjacent_swaps": 1, "nonadjacent_swaps": 1},
        True,
    )


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
    # negation first, then switching
    left = Permutation(switching_involution().images[negation_involution().images])
    assert left == negated_switching_involution()


def test_involutions_for_unknown():
    with pytest.raises(UnknownGraphError):
        involutions_for("not-a-graph")


def test_switching_matrix_fixed_space_is_checked_under_optimization(run_optimized):
    result = run_optimized("""
        from dezaforge import catalog
        catalog.fixed_space_basis = lambda m: [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]
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


def _perms(translations, matrices):
    return [*(translation_perm(t) for t in translations), *map(perm_from_matrix, matrices)]


def _diagonal(*entries):
    return GF3Matrix(np.diag(entries))


_CYCLE = GF3Matrix(np.roll(np.eye(5, dtype=np.int64), 1, axis=1))
_NEG = negate(identity(5))


@pytest.mark.parametrize(
    "translations, matrices, expected",
    [
        # the M11 pair alone: matrix_group()
        (np.empty((0, 5), dtype=np.int64), [M11_GEN_A, M11_GEN_B], 7920),
        # gamma: 243 translations, M11 and -I, which M11 does not hold
        (*affine_seeds("gamma"), 243 * 2 * 7920),
        # delta: 27 switching-fixed translations and the centralizer with -I
        (*affine_seeds("delta"), 27 * 96),
        # -I = diag(2,2,1,1,1) diag(1,1,2,2,2) is in <L>, so it adds no factor
        ([(1, 0, 0, 0, 0)], [_NEG, _diagonal(2, 2, 1, 1, 1), _diagonal(1, 1, 2, 2, 2)], 3 * 4),
        # one translation whose span the coordinate 5-cycle grows to all of V
        ([(1, 0, 0, 0, 0)], [_CYCLE, _NEG], 243 * 5 * 2),
        # a translation alone, and nothing at all
        ([(0, 2, 1, 0, 0)], [], 3),
        (np.empty((0, 5), dtype=np.int64), [], 1),
    ],
)
def test_affine_orders_match_schreier_sims(translations, matrices, expected):
    translations = np.array(translations, dtype=np.int64).reshape(-1, 5)
    assert affine_order(translations, matrices) == expected
    assert group_order(_perms(translations, matrices)) == expected


@pytest.mark.parametrize("name", ["gamma", "delta", "petersen"])
def test_seed_orders_are_the_prefix_orders(name):
    # affine_order of every prefix of the seeds, translations first, against
    # the Schreier-Sims order of the same prefix of known_generators
    translations, matrices = affine_seeds(name)
    gens = known_generators(name)
    for i in range(len(gens) + 1):
        prefix = translations[:i], matrices[: max(i - len(translations), 0)]
        assert affine_order(*prefix) == group_order(gens[:i]), i


def test_known_generators_are_the_affine_seeds():
    for name in GRAPH_NAMES:
        assert known_generators(name) == _perms(*affine_seeds(name))
    translations, matrices = affine_seeds("delta")
    assert rank(GF3Matrix(translations)) == 3
    assert len(catalog._closure(np.stack([m.array for m in matrices]))) == 96
