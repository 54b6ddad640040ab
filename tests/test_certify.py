import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dezaforge import certify
from dezaforge.catalog import petersen_transposition
from dezaforge.certify import (
    certify_ddg,
    certify_deza,
    certify_srg,
    common_neighbors,
    diameter,
    triangle_count,
)
from dezaforge.graphcore import complement, dual_seidel_switch, exact_matmul, from_edges


def test_common_neighbors(petersen):
    for u in range(10):
        for w in range(u + 1, 10):
            expect = 0 if petersen.has_edge(u, w) else 1
            assert common_neighbors(petersen, u, w) == expect


def test_diameter(petersen, c5):
    assert diameter(petersen) == 2
    assert diameter(c5) == 2
    path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert diameter(path) == 3
    disconnected = from_edges(4, [(0, 1), (2, 3)])
    assert diameter(disconnected) is None
    assert diameter(from_edges(1, [])) == 0
    k4 = from_edges(4, [(u, w) for u in range(4) for w in range(u + 1, 4)])
    assert diameter(k4) == 1
    assert diameter(from_edges(2, [])) is None
    # eccentricity 1 at vertex 0, so the diameter comes from the other rows
    assert diameter(from_edges(3, [(0, 1), (0, 2)])) == 2


def test_triangle_count(petersen, c5, gamma):
    assert triangle_count(petersen) == 0
    assert triangle_count(c5) == 0
    # every edge of an SRG(243,22,1,2) lies in exactly lambda=1 triangle
    assert triangle_count(gamma) == gamma.edge_count() * 1 // 3


def test_certify_srg_petersen(petersen):
    cert = certify_srg(petersen)
    assert cert.passed
    assert cert.parameters == (10, 3, 0, 1)
    assert (cert.r, cert.s) == (1, -2)
    assert (cert.multiplicity_r, cert.multiplicity_s) == (5, 4)


def test_certify_srg_gamma(gamma):
    cert = certify_srg(gamma)
    assert cert.passed
    assert cert.parameters == (243, 22, 1, 2)
    assert (cert.r, cert.s) == (4, -5)
    assert (cert.multiplicity_r, cert.multiplicity_s) == (132, 110)


def test_certify_srg_conference_parameters(c5):
    # C5 is strongly regular but its eigenvalues are irrational
    cert = certify_srg(c5)
    assert cert.passed
    assert cert.parameters == (5, 2, 0, 1)
    assert cert.r is None and cert.s is None


def test_certify_srg_complement(gamma):
    cert = certify_srg(complement(gamma))
    assert cert.passed
    assert cert.parameters == (243, 220, 199, 200)


def test_certify_srg_rejects_irregular():
    path = from_edges(3, [(0, 1), (1, 2)])
    cert = certify_srg(path)
    assert not cert.passed
    assert cert.failure["reason"] == "not regular"
    assert cert.parameters is None


def test_certify_srg_rejects_complete():
    k4 = from_edges(4, [(u, w) for u in range(4) for w in range(u + 1, 4)])
    cert = certify_srg(k4)
    assert not cert.passed
    assert "degenerate" in cert.failure["reason"]


def test_certify_srg_failure_has_witness_pairs(delta):
    # the switched graph is Deza but not strongly regular
    cert = certify_srg(delta)
    assert not cert.passed
    pairs = cert.failure.get("adjacent", []) + cert.failure.get("nonadjacent", [])
    assert pairs
    for p in pairs:
        assert common_neighbors(delta, p["u"], p["w"]) == p["common"]
    # the first pair, row by row, for each of the two lowest counts
    assert cert.failure["adjacent"] == [
        {"u": 0, "w": 1, "common": 1},
        {"u": 1, "w": 4, "common": 2},
    ]
    assert cert.failure["nonadjacent"] == [
        {"u": 1, "w": 2, "common": 1},
        {"u": 0, "w": 3, "common": 2},
    ]


def test_certify_deza_delta(delta):
    cert = certify_deza(delta)
    assert cert.passed
    assert cert.parameters == (243, 22, 2, 1)
    assert cert.strict
    assert cert.diameter == 2


def test_certify_deza_on_srg_is_not_strict(petersen):
    cert = certify_deza(petersen)
    assert cert.passed
    assert cert.parameters == (10, 3, 1, 0)
    assert not cert.strict


def test_certify_deza_switched_petersen_is_not_strict(petersen):
    # Deza (10,3,1,0) again, but the diameter grows to 3
    switched = dual_seidel_switch(petersen, petersen_transposition())
    cert = certify_deza(switched)
    assert cert.passed
    assert cert.parameters == (10, 3, 1, 0)
    assert cert.diameter == 3
    assert not cert.strict


def test_certify_deza_cube():
    cube = from_edges(
        8,
        [
            (0, 1), (0, 2), (1, 3), (2, 3),
            (4, 5), (4, 6), (5, 7), (6, 7),
            (0, 4), (1, 5), (2, 6), (3, 7),
        ],
    )
    cert = certify_deza(cube)
    assert cert.passed
    assert cert.parameters == (8, 3, 2, 0)
    assert not cert.strict  # diameter 3


def test_certify_deza_rejects_three_values():
    # triangular prism: pairs share 0, 1, or 2 common neighbours
    prism = from_edges(
        6,
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
    )
    cert = certify_deza(prism)
    assert not cert.passed
    assert "3 distinct" in cert.failure["reason"]
    assert cert.failure["witnesses"] == [
        {"u": 0, "w": 3, "common": 0},
        {"u": 0, "w": 1, "common": 1},
        {"u": 0, "w": 4, "common": 2},
    ]


def test_certify_deza_witnesses_the_three_lowest_counts():
    # circulant C9(1, 3): pairs share 0, 1, 2 or 3 common neighbours
    edges = {tuple(sorted((i, (i + s) % 9))) for i in range(9) for s in (1, 3)}
    cert = certify_deza(from_edges(9, sorted(edges)))
    assert cert.failure["reason"] == "4 distinct common-neighbour counts"
    assert cert.failure["witnesses"] == [
        {"u": 0, "w": 1, "common": 0},
        {"u": 0, "w": 3, "common": 1},
        {"u": 0, "w": 4, "common": 2},
    ]


@st.composite
def adjacency_matrices(draw):
    v = draw(st.integers(2, 16))
    bits = draw(st.lists(st.booleans(), min_size=v * (v - 1) // 2, max_size=v * (v - 1) // 2))
    a = np.zeros((v, v), dtype=bool)
    a[np.triu_indices(v, 1)] = bits
    return a | a.T


@settings(max_examples=60, deadline=None)
@given(adjacency_matrices())
def test_distinct_counts_match_unique(a):
    n2 = exact_matmul(a, a)
    off = ~np.eye(len(a), dtype=bool)
    for mask in (off, a, off & ~a):
        assert np.array_equal(certify._distinct_counts(n2[mask]), np.unique(n2[mask]))


def test_certify_ddg_gamma_k2(gamma_k2):
    cert = certify_ddg(gamma_k2)
    assert cert.passed
    assert (cert.m, cert.n, cert.lambda1, cert.lambda2) == (243, 2, 44, 4)
    assert sorted(len(c) for c in cert.partition) == [2] * 243


def test_certify_ddg_partition_is_exact(delta_k2):
    cert = certify_ddg(delta_k2)
    assert cert.passed
    assert (cert.m, cert.n, cert.lambda1, cert.lambda2) == (243, 2, 44, 4)
    n2 = delta_k2.int_adjacency() @ delta_k2.int_adjacency()
    for cls in cert.partition[:20]:
        u, w = cls
        assert n2[u, w] == 44


def test_certify_ddg_rejects_petersen(petersen):
    cert = certify_ddg(petersen)
    assert not cert.passed
    assert cert.failure


def test_srg_feasibility_is_checked_under_optimization(run_optimized):
    # an A^2 that satisfies the SRG identity for lambda = mu = 1 on C5 but
    # not the feasibility identity k(k-lambda-1) = (v-k-1)mu
    result = run_optimized("""
        import numpy as np
        from dezaforge import certify
        from dezaforge.catalog import build_graph
        g = build_graph("c5")
        a = g.int_adjacency()
        i = np.eye(5, dtype=np.int64)
        fake = 2 * i + a + (1 - i - a)
        certify.exact_matmul = lambda left, right: fake
        cert = certify.certify_srg(g)
        print(cert.passed, cert.failure["reason"])
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("False feasibility identity")


def test_triangle_parity_is_checked_under_optimization(run_optimized):
    result = run_optimized("""
        from dezaforge import certify
        from dezaforge.catalog import build_graph
        real = certify.exact_matmul
        certify.exact_matmul = lambda left, right: real(left, right) + 1
        try:
            certify.triangle_count(build_graph("c5"))
        except ArithmeticError as exc:
            print("raised", exc)
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("raised trace(A^3) = 10")
