import itertools
import subprocess
import sys

import numpy as np
import pytest

from dezaforge import catalog
from dezaforge.autiso import automorphism_group
from dezaforge.catalog import (
    GRAPH_NAMES,
    Presentation,
    UnknownGraphError,
    affine_order,
    build_graph,
    c5_reflection,
    centralizer_pair,
    involutions_for,
    known_generators,
    lifted_switching_involution,
    matrix_group,
    petersen_transposition,
    presentation,
    switching_matrix,
)
from dezaforge.certify import certify_deza, certify_srg
from dezaforge.cli import main
from dezaforge.gf3 import (
    ConnectionSet,
    M11_GEN_A,
    M11_GEN_B,
    all_vectors,
    fixed_space_basis,
    matrix,
    rank,
)
from dezaforge.graphcore import dual_seidel_switch, is_automorphism
from dezaforge.permgroup import (
    Permutation,
    is_involution,
    perm_from_matrix,
    translation_perm,
)
from dezaforge.pipeline import involution_row
from schreier_sims import group_order

_EYE5 = np.eye(5, dtype=np.int64)


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
    assert (group == x).all(axis=(1, 2)).any()


def test_switching_matrix_is_involution_with_27_fixed_vectors():
    x = switching_matrix()
    assert np.array_equal(x @ x % 3, _EYE5)
    assert len(fixed_space_basis(x)) == 3  # 3^3 = 27 fixed vertices
    with pytest.raises(ValueError):
        x[0, 0] = 1


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
    for c in centralizer_pair():
        assert np.array_equal(c @ x % 3, x @ c % 3)


def test_negated_switching_is_the_composition():
    # negation first, then switching
    gamma = involutions_for("gamma")
    left = Permutation(gamma["switching"].images[gamma["negation"].images])
    assert left == gamma["negated-switching"]


def test_involutions_for_unknown():
    with pytest.raises(UnknownGraphError):
        involutions_for("not-a-graph")


def _checked_constant(run_optimized, constant, value, check):
    """Under python -O, store value as the catalogue's constant and run check."""
    return run_optimized(f"""
        import numpy as np
        from dezaforge import catalog
        from dezaforge.gf3 import M11_GEN_A, M11_GEN_B
        catalog.{constant} = {value}
        try:
            catalog.{check}()
        except ArithmeticError as exc:
            print("raised:", exc)
    """)


def test_switching_matrix_fixed_space_is_checked_under_optimization(run_optimized):
    # -sigma is an involution that keeps S1 and fixes a plane: 9 vectors
    result = _checked_constant(
        run_optimized, "_SWITCHING", "-catalog._SWITCHING % 3", "switching_matrix"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "raised: switching involution fixes a space of dimension 2, not 3\n"


@pytest.mark.parametrize(
    "constant, value, check, message",
    [
        ("_SWITCHING", "np.eye(5, dtype=np.int64)", "switching_matrix",
         "switching matrix is not an involution"),
        # order 4
        ("_SWITCHING", "M11_GEN_B", "switching_matrix", "switching matrix is not an involution"),
        ("_SWITCHING", "np.diag([1, 1, 1, 1, 2])", "switching_matrix",
         "switching matrix does not keep S1"),
        ("_CENTRALIZER_PAIR", "(M11_GEN_A, catalog._CENTRALIZER_PAIR[1])", "centralizer_pair",
         "centralizer pair member does not commute with sigma"),
        # sigma and -I commute with sigma and generate {I, -I, sigma, -sigma}
        ("_CENTRALIZER_PAIR", "(catalog._SWITCHING, catalog._NEGATION)", "centralizer_pair",
         "centralizer pair generates 4 matrices, not 48"),
    ],
    ids=["identity", "order-4", "moves-s1", "not-commuting", "order-4-pair"],
)
def test_stored_constants_are_checked_under_optimization(
    run_optimized, constant, value, check, message
):
    result = _checked_constant(run_optimized, constant, value, check)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"raised: {message}\n"


def test_matrix_group_is_sorted_and_closed():
    group = matrix_group()
    flat = group.reshape(len(group), -1).tolist()
    assert all(a < b for a, b in zip(flat, flat[1:]))
    members = {m.tobytes() for m in group}
    for gen in (M11_GEN_A, M11_GEN_B):
        assert {m.tobytes() for m in group @ gen % 3} == members


def test_group_selections_match_a_loop_over_the_group():
    # the derivation of the stored constants, one matrix product at a time in
    # the group's sorted order: sigma is the first involution, and the pair
    # the first that generates sigma's centralizer
    group = matrix_group()
    x = next(
        m for m in group if not np.array_equal(m, _EYE5) and np.array_equal(m @ m % 3, _EYE5)
    )
    assert np.array_equal(x, switching_matrix())
    cent = [m for m in group if np.array_equal(m @ x % 3, x @ m % 3)]
    assert len(cent) == 48
    perms = [perm_from_matrix(m) for m in cent]
    pair = next(
        (cent[i], cent[j])
        for i, j in itertools.combinations(range(len(cent)), 2)
        if group_order([perms[i], perms[j]]) == len(cent)
    )
    assert np.array_equal(np.stack(pair), np.stack(centralizer_pair()))


def _seeds(name):
    """The affine seeds of a named graph: its presentation's, or none."""
    if name not in ("gamma", "gamma-s2", "delta"):
        return np.empty((0, 5), dtype=np.int64), []
    p = presentation(name)
    return p.translations, list(p.matrices)


def _perms(translations, matrices):
    return [*(translation_perm(t) for t in translations), *map(perm_from_matrix, matrices)]


_CYCLE = np.roll(_EYE5, 1, axis=1)
_NEG = -_EYE5 % 3


@pytest.mark.parametrize(
    "translations, matrices, expected",
    [
        # the M11 pair alone: matrix_group()
        (np.empty((0, 5), dtype=np.int64), [M11_GEN_A, M11_GEN_B], 7920),
        # gamma: 243 translations, M11 and -I, which M11 does not hold
        (*_seeds("gamma"), 243 * 2 * 7920),
        # delta: 27 switching-fixed translations and the centralizer with -I
        (*_seeds("delta"), 27 * 96),
        # -I = diag(2,2,1,1,1) diag(1,1,2,2,2) is in <L>, so it adds no factor
        ([(1, 0, 0, 0, 0)], [_NEG, np.diag([2, 2, 1, 1, 1]), np.diag([1, 1, 2, 2, 2])], 3 * 4),
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
    translations, matrices = _seeds(name)
    gens = known_generators(name)
    for i in range(len(gens) + 1):
        prefix = translations[:i], matrices[: max(i - len(translations), 0)]
        assert affine_order(*prefix) == group_order(gens[:i]), i


def test_known_generators_are_the_affine_seeds():
    for name in GRAPH_NAMES:
        assert known_generators(name) == _perms(*_seeds(name))
    translations, matrices = _seeds("delta")
    assert rank(translations) == 3
    assert len(catalog._closure(np.stack(matrices))) == 96


def test_closure_takes_the_dimension_from_the_matrices():
    # the coordinate 6-cycle generates 6 matrices; 7 x 7 matrices have 49
    # base-3 digits, whose codes would wrap int64
    assert len(catalog._closure(np.roll(np.eye(6, dtype=np.int64), 1, axis=1)[None])) == 6
    with pytest.raises(ValueError, match="do not fit int64"):
        catalog._closure(np.eye(7, dtype=np.int64)[None])


@pytest.mark.parametrize("name", ["gamma", "delta"])
def test_seed_order_is_computed_once_per_presentation(name, monkeypatch, capsys):
    assert main(["aut", name]) == 0
    calls = []
    monkeypatch.setattr(catalog, "_closure", calls.append)
    assert main(["aut", name]) == 0
    assert calls == []


_COUNT_CLOSURES = """
import contextlib, io, sys
from dezaforge import catalog
from dezaforge.cli import main
sizes = []
closure = catalog._closure

def counted(gens):
    group = closure(gens)
    sizes.append(len(group))
    return group

catalog._closure = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sizes)
"""


def _closure_sizes(argv):
    """The exit code of argv in a fresh process, and the size of every
    group catalog._closure built on the way."""
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_CLOSURES, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    code, *sizes = map(int, proc.stdout.split())
    return code, sizes


@pytest.mark.parametrize(
    "argv",
    [["aut", "delta"], ["switch", "gamma"], ["involutions", "gamma"], ["certify-deza", "delta"]],
    ids=" ".join,
)
def test_fresh_commands_close_no_m11_group(argv):
    # sigma and its centralizer pair are stored, so only aut gamma and the
    # run's subgroup-orders need the 7920-element group
    code, sizes = _closure_sizes(argv)
    assert code == 0
    assert 7920 not in sizes


def test_deep_run_closes_the_m11_group_once():
    # subgroup-orders and aut-gamma's seed order share one closure
    code, sizes = _closure_sizes(["run", "--deep"])
    assert code == 0
    assert sizes.count(7920) == 1


# VO-(4,3): Q(x) = x1 x2 + x3^2 + x4^2 with polar form B(x, y) = x G y^T
_GRAM = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])


def _quadratic(x):
    return (x[..., 0] * x[..., 1] + x[..., 2] ** 2 + x[..., 3] ** 2) % 3


def _reflection(v):
    """r_v: x -> x - (B(x, v) / Q(v)) v, as a matrix on row vectors."""
    q = int(_quadratic(v))  # 1 / q = q mod 3
    return matrix((np.eye(4, dtype=np.int64) - q * np.outer(_GRAM @ v, v)) % 3)


def _vo_minus_4():
    """VO-(4,3) as a test-only presentation: the 20 nonzero singular vectors;
    the unit translations, the 30 reflections and a similitude with
    Q(xM) = 2 Q(x) as seeds; one reflection for each nonzero value of Q(v)."""
    vectors = all_vectors(4)
    q = _quadratic(vectors)
    reflections = {_reflection(v).tobytes(): _reflection(v) for v in vectors[q != 0]}
    similitude = matrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]])
    assert np.array_equal(_quadratic(vectors @ similitude % 3), 2 * q % 3)
    return Presentation(
        ConnectionSet(vectors[(q == 0) & vectors.any(axis=1)]),
        np.eye(4, dtype=np.int64),
        (*reflections.values(), similitude),
        {f"q{_quadratic(v)}": _reflection(v) for v in np.array([[0, 0, 1, 0], [0, 0, 1, 1]])},
    )


def test_vo_minus_4_presentation_needs_no_new_branch():
    p = _vo_minus_4()
    assert len(p.connection_set) == 20 and len(p.matrices) == 31
    assert list(p.involutions) == ["q1", "q2"]
    g = p.graph("vo-4")
    assert certify_srg(g).parameters == (81, 20, 1, 6)
    # the seeds' affine order, checked against Schreier-Sims, is |Aut|: the
    # seeded search proves it at its first leaf, the unseeded one reads it
    # after 30 nodes
    assert p.seed_order == 81 * 2880 == group_order(p.generators())
    seeded = automorphism_group(g, p.generators(), seed_order=p.seed_order)
    unseeded = automorphism_group(g)
    assert (seeded.order, seeded.nodes_searched) == (233_280, 6)
    assert (unseeded.order, unseeded.nodes_searched) == (233_280, 30)
    for name, m in p.involutions.items():
        sigma = perm_from_matrix(m)
        cert = certify_deza(dual_seidel_switch(g, sigma))
        assert (cert.v, cert.k, cert.b, cert.a, cert.strict) == (81, 20, 6, 1, True), name
        assert len(sigma.fixed_points()) == 27, name
