import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dezaforge.catalog import (
    c5_reflection,
    lifted_switching_involution,
    negation_involution,
    petersen_transposition,
    switching_involution,
)
from dezaforge.gf3 import ConnectionSet, connection_set_s1
from dezaforge.graphcore import (
    Graph,
    Graph6ParseError,
    SwitchingInapplicableError,
    cayley,
    classify_involution_pairs,
    complement,
    _product_path,
    dual_seidel_switch,
    exact_matmul,
    from_edge_list,
    from_edges,
    from_graph6,
    is_automorphism,
    lift_involution_to_product,
    strong_product_K2,
    to_edge_list,
    to_graph6,
)
from dezaforge.permgroup import Permutation


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(np.array([[1, 0], [0, 0]], dtype=bool))  # loop
    with pytest.raises(ValueError):
        Graph(np.array([[0, 1], [0, 0]], dtype=bool))  # asymmetric
    with pytest.raises(ValueError):
        Graph(np.zeros((2, 3), dtype=bool))  # not square


def test_from_edges_rejects_loops_and_bad_indices():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])


def test_basic_queries(petersen):
    assert petersen.v == 10
    assert petersen.edge_count() == 15
    assert petersen.is_regular()
    assert petersen.degree() == 3
    assert petersen.has_edge(*petersen.edges()[0])
    assert sorted(petersen.neighbors(0)) == [
        w for w in range(10) if petersen.has_edge(0, w)
    ]


def test_cayley_triangle():
    s = ConnectionSet.from_vectors([(1,), (2,)])
    g = cayley(1, s)
    assert g.v == 3
    assert g.edge_count() == 3


def test_cayley_gamma_shape(gamma):
    assert gamma.v == 243
    assert gamma.degree() == 22
    assert gamma.edge_count() == 243 * 22 // 2


def test_cayley_adjacency_is_difference_membership(gamma):
    from dezaforge.gf3 import index_to_vector

    s1 = connection_set_s1()
    for u, w in ((0, 5), (17, 100), (12, 12)):
        diff = tuple(
            (a - b) % 3
            for a, b in zip(index_to_vector(u, 5), index_to_vector(w, 5))
        )
        assert gamma.has_edge(u, w) == (diff in s1.vectors)


def test_complement(c5):
    cc = complement(c5)
    assert cc.v == 5
    assert cc.edge_count() == 5
    for u in range(5):
        for w in range(u + 1, 5):
            assert c5.has_edge(u, w) != cc.has_edge(u, w)


def test_is_automorphism(petersen, c5):
    assert is_automorphism(petersen, petersen_transposition())
    assert is_automorphism(c5, c5_reflection())
    assert not is_automorphism(petersen, Permutation([1, 0] + list(range(2, 10))))


def test_classify_involution_pairs(c5, gamma):
    assert classify_involution_pairs(c5, c5_reflection()) == {
        "fixed": 1,
        "adjacent_swaps": 1,
        "nonadjacent_swaps": 1,
    }
    swaps = classify_involution_pairs(gamma, switching_involution())
    assert swaps == {"fixed": 27, "adjacent_swaps": 0, "nonadjacent_swaps": 108}


def test_classify_rejects_non_involution(c5):
    with pytest.raises(ValueError):
        classify_involution_pairs(c5, Permutation([1, 2, 3, 4, 0]))


def test_dual_seidel_switch_requires_non_adjacent_swaps(c5):
    # the reflection swaps an adjacent pair, so switching is undefined
    with pytest.raises(SwitchingInapplicableError):
        dual_seidel_switch(c5, c5_reflection())


def test_dual_seidel_switch_rejects_k_equal_to_mu():
    # K3,3 is SRG(6, 3, 0, 3); (0 1) swaps two non-adjacent vertices of a side
    k33 = from_edges(6, [(u, w) for u in range(3) for w in range(3, 6)])
    with pytest.raises(SwitchingInapplicableError, match="k = mu = 3"):
        dual_seidel_switch(k33, Permutation([1, 0, 2, 3, 4, 5]))


def test_dual_seidel_switch_rejects_lambda_equal_to_mu():
    # the 4x4 rook graph is SRG(16, 6, 2, 2); the transpose (i, j) -> (j, i)
    # swaps only cells in different rows and columns
    cells = [(i, j) for i in range(4) for j in range(4)]
    rook = from_edges(
        16,
        [
            (4 * a + b, 4 * c + d)
            for (a, b), (c, d) in itertools.combinations(cells, 2)
            if a == c or b == d
        ],
    )
    transpose = Permutation([4 * j + i for i, j in cells])
    with pytest.raises(SwitchingInapplicableError, match="lambda = mu = 2"):
        dual_seidel_switch(rook, transpose)


def test_dual_seidel_switch_tests_the_automorphism_once(gamma, witness_calls):
    dual_seidel_switch(gamma, switching_involution())
    assert len(witness_calls) == 1


def test_dual_seidel_switch_fixed_vertices_keep_their_rows(gamma, delta):
    sigma = switching_involution()
    for u in range(gamma.v):
        expect = gamma.neighbors(u) if sigma(u) == u else gamma.neighbors(sigma(u))
        assert delta.neighbors(u) == expect


def test_dual_seidel_switch_is_self_inverse(petersen):
    tau = petersen_transposition()
    once = dual_seidel_switch(petersen, tau)
    assert once != petersen
    assert dual_seidel_switch(once, tau) == petersen


def test_strong_product_k2_shape(c5):
    g = strong_product_K2(c5)
    assert g.v == 10
    assert g.degree() == 2 * 2 + 1
    # (u,i) ~ (w,j) iff u=w or u~w in the factor
    for u in range(5):
        assert g.has_edge(2 * u, 2 * u + 1)
        for w in range(u + 1, 5):
            for i in (0, 1):
                for j in (0, 1):
                    assert g.has_edge(2 * u + i, 2 * w + j) == c5.has_edge(u, w)


def test_lift_involution_doubles_degree(gamma, gamma_k2):
    lifted = lift_involution_to_product(switching_involution())
    assert lifted.degree == 486
    assert is_automorphism(gamma_k2, lifted)
    assert lifted == lifted_switching_involution()
    swaps = classify_involution_pairs(gamma_k2, lifted)
    assert swaps == {"fixed": 54, "adjacent_swaps": 0, "nonadjacent_swaps": 216}


def test_switched_product_differs_from_product_of_switch(gamma, delta, delta_k2):
    product_of_switch = strong_product_K2(delta)
    assert product_of_switch.v == delta_k2.v
    assert product_of_switch != delta_k2


@pytest.mark.parametrize("name", ["c5", "petersen", "gamma"])
def test_graph6_round_trip(name, request):
    g = request.getfixturevalue(name)
    assert from_graph6(to_graph6(g)) == g


def test_graph6_known_encoding():
    # K3 in canonical graph6 is "Bw"
    k3 = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert to_graph6(k3) == "Bw"
    assert from_graph6("Bw") == k3


def test_graph6_parse_errors():
    with pytest.raises(Graph6ParseError):
        from_graph6("")
    with pytest.raises(Graph6ParseError):
        from_graph6("B")  # truncated edge bits
    with pytest.raises(Graph6ParseError) as info:
        from_graph6("B" + chr(30))  # byte below printable range
    assert str(info.value) == "invalid sixbit byte '\\x1e' (byte offset 1)"
    assert info.value.offset == 1
    # code points above Latin-1, a lone surrogate among them, are sixbit errors
    for text in ("C" + "\u0100", "C" + "\ud800"):
        with pytest.raises(Graph6ParseError) as info:
            from_graph6(text)
        assert str(info.value) == f"invalid sixbit byte {text[1]!r} (byte offset 1)"
        assert info.value.offset == 1


def test_graph6_strips_only_ascii_whitespace():
    assert from_graph6(" \tC?\r\n").v == 4
    # str.strip() would also drop these, leaving a valid "C?"
    for text in ("C?\x1f", "C?\xa0"):
        with pytest.raises(Graph6ParseError) as info:
            from_graph6(text)
        assert str(info.value) == "expected 1 payload bytes for 4 vertices, got 2 (byte offset 1)"


def test_edge_list_round_trip(petersen):
    text = to_edge_list(petersen)
    assert from_edge_list(text, v=10) == petersen
    assert from_edge_list(text) == petersen


def test_edge_list_parse_errors():
    with pytest.raises(ValueError):
        from_edge_list("0 1 2")
    with pytest.raises(ValueError):
        from_edge_list("0 x")


def _object_product(left, right):
    return left.astype(object) @ right.astype(object)


def test_exact_matmul_paths_at_the_thresholds():
    one = np.array([[1]], dtype=np.int64)
    below = np.array([[2**53 - 1]], dtype=np.int64)
    at = np.array([[2**53]], dtype=np.int64)
    int64_max = np.array([[2**63 - 1]], dtype=np.int64)
    assert _product_path(below, one) == "float64"
    assert _product_path(at, one) == "int64"
    assert _product_path(int64_max, one) == "int64"
    assert _product_path(int64_max, np.array([[2]], dtype=np.int64)) == "object"
    # 2^53 + 1 is the first integer float64 cannot hold
    left = np.array([[2**53, 1]], dtype=np.int64)
    right = np.array([[1], [1]], dtype=np.int64)
    assert _product_path(left, right) == "int64"
    assert exact_matmul(left, right).tolist() == [[2**53 + 1]]
    assert exact_matmul(below, one).tolist() == [[2**53 - 1]]


def test_exact_matmul_bound_does_not_wrap():
    # the absolute row sums, 1.2e19, exceed int64: the bound must not wrap
    left = np.full((3, 3), 4 * 10**18, dtype=np.int64)
    right = np.full((3, 3), 2, dtype=np.int64)
    assert _product_path(left, right) == "object"
    product = exact_matmul(left, right)
    assert product.tolist() == [[24 * 10**18] * 3] * 3
    # int64 min has no int64 absolute value
    smallest = np.array([[-(2**63)]], dtype=np.int64)
    assert _product_path(smallest, np.array([[1]], dtype=np.int64)) == "object"
    assert exact_matmul(smallest, np.array([[-1]], dtype=np.int64)).tolist() == [[2**63]]


def test_exact_matmul_dtypes(petersen):
    adj = petersen.adjacency
    a2 = exact_matmul(adj, adj)
    assert a2.dtype == np.int64
    assert (a2 == _object_product(adj.astype(np.int64), adj.astype(np.int64))).all()
    vec = np.arange(10, dtype=np.int64)
    assert exact_matmul(adj, vec).tolist() == _object_product(adj, vec).tolist()
    big = np.full((10, 10), 2**62, dtype=object)
    assert exact_matmul(big, adj).dtype == object


@st.composite
def _near_threshold(draw):
    """Integer matrices whose product bound lands near 2^53, 2^63 or 2^64."""
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    target = draw(st.sampled_from([2**53, 2**63, 2**64]))
    left_max = draw(st.integers(1, 2**40))
    right_max = max(1, target // (left_max * inner)) + draw(st.integers(-2, 2))
    right_max = min(2**63 - 1, max(1, right_max))

    def matrix(shape, top):
        entries = st.integers(-top, top) | st.sampled_from([-top, top])
        size = shape[0] * shape[1]
        flat = draw(st.lists(entries, min_size=size, max_size=size))
        return np.array(flat, dtype=np.int64).reshape(shape)

    return matrix((rows, inner), left_max), matrix((inner, cols), right_max)


@settings(max_examples=300, deadline=None)
@given(_near_threshold())
def test_exact_matmul_equals_object_product(pair):
    left, right = pair
    assert exact_matmul(left, right).tolist() == _object_product(left, right).tolist()


def test_from_graph6_accepts_header(petersen):
    assert from_graph6(">>graph6<<" + to_graph6(petersen) + "\n") == petersen
    with pytest.raises(Graph6ParseError) as info:
        from_graph6(">>graph6<<")
    assert info.value.offset == len(">>graph6<<")


def _random_graph(v, density, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((v, v)) < density, 1)
    return Graph(upper | upper.T)


# 0..70 vertices crosses the switch from the 1-byte to the 4-byte header
@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        _random_graph,
        st.integers(0, 70),
        st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
        st.integers(0, 2**32 - 1),
    )
)
@example(_random_graph(258, 0.5, 0))
def test_graph6_round_trip_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    text = to_graph6(g)
    assert from_graph6(text) == g
    oracle = nx.to_graph6_bytes(nx.from_numpy_array(g.int_adjacency()), header=False)
    assert text == oracle.decode("ascii").rstrip("\n")
