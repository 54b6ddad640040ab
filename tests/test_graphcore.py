import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dezaforge.catalog import (
    c5_reflection,
    connection_set_s1,
    lifted_switching_involution,
    petersen_transposition,
    switching_involution,
)
from dezaforge.certify import certify_deza, certify_srg
from dezaforge.gf3 import ConnectionSet, all_vectors
from dezaforge import certify
from dezaforge.graphcore import (
    Graph,
    Graph6ParseError,
    SwitchingInapplicableError,
    automorphism_witness,
    cayley,
    _graph6_bit_order,
    _product_path,
    dual_seidel_switch,
    exact_matmul,
    from_edges,
    from_graph6,
    is_automorphism,
    lift_involution_to_product,
    strong_product_K2,
    to_edge_list,
    to_graph6,
)
from dezaforge.permgroup import Permutation
from dezaforge.pipeline import involution_row
from dezaforge.spectra import power_traces


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
    edges = petersen.edges()
    assert len(edges) == 15 and all(u < w and petersen.adjacency[u, w] for u, w in edges)


@pytest.mark.parametrize("v, dtype", [(254, np.uint8), (256, np.uint16)])
def test_square_is_compact_exact_and_read_only(v, dtype):
    # the cocktail-party graph, K_v less a perfect matching: SRG(v, v-2, v-4, v-2)
    # with spectrum (v-2)^1, 0^n, (-2)^(n-1)
    n = v // 2
    a = ~np.eye(v, dtype=bool)
    a[np.arange(0, v, 2), np.arange(1, v, 2)] = False
    a[np.arange(1, v, 2), np.arange(0, v, 2)] = False
    g = Graph(a)
    square = g.square()
    assert square.dtype == dtype
    assert (square == g.int_adjacency() @ g.int_adjacency()).all()
    assert g.square() is square
    with pytest.raises(ValueError):
        square[0, 0] = 0
    k = v - 2
    assert certify_srg(g).parameters == (v, k, v - 4, v - 2)
    deza = certify_deza(g)
    assert deza.parameters == (v, k, v - 2, v - 4)
    assert deza.diameter == 2 and not deza.strict
    # trace(A^3) = 6 * 8 * C(n, 3) is far beyond the dtype; no sum may wrap
    assert power_traces(g, 7) == [
        k**j + n * 0**j + (n - 1) * (-2) ** j for j in range(7)
    ]


def test_cayley_triangle():
    s = ConnectionSet([(1,), (2,)])
    g = cayley(s)
    assert g.v == 3
    assert g.edge_count() == 3


def test_cayley_gamma_shape(gamma):
    assert gamma.v == 243
    assert gamma.degree() == 22
    assert gamma.edge_count() == 243 * 22 // 2


def test_cayley_adjacency_is_difference_membership(gamma):
    members = set(map(tuple, connection_set_s1().vectors.tolist()))
    for u, w in ((0, 5), (17, 100), (12, 12)):
        diff = tuple((u // 3**i % 3 - w // 3**i % 3) % 3 for i in range(5))
        assert gamma.adjacency[u, w] == (diff in members)


@st.composite
def inverse_closed_sets(draw):
    """A random inverse-closed, identity-free set of vectors of V(n,3), n <= 3."""
    n = draw(st.integers(1, 3))
    # one representative per +-pair: the first nonzero coordinate is 1
    reps = [v for v in all_vectors(n).tolist() if any(v) and v[np.flatnonzero(v)[0]] == 1]
    chosen = draw(st.lists(st.sampled_from(reps), min_size=1, unique_by=tuple))
    return [[x * sign % 3 for x in v] for v in chosen for sign in (1, 2)]


@settings(max_examples=100, deadline=None)
@given(inverse_closed_sets())
def test_cayley_matches_difference_membership(vectors):
    # i ~ j iff vector(i) - vector(j) lies in S, pair by pair
    g = cayley(ConnectionSet(vectors))
    members = set(map(tuple, vectors))
    vv = all_vectors(len(vectors[0])).tolist()
    want = [
        [tuple((a - b) % 3 for a, b in zip(x, y)) in members for y in vv] for x in vv
    ]
    assert g.adjacency.tolist() == want


def test_is_automorphism(petersen, c5):
    assert is_automorphism(petersen, petersen_transposition())
    assert is_automorphism(c5, c5_reflection())
    assert not is_automorphism(petersen, Permutation([1, 0] + list(range(2, 10))))


def _full_compare_witness(g, sigma):
    """The witness pair by comparing A with A permuted by sigma in full."""
    p = sigma.images
    moved = np.argwhere(g.adjacency[np.ix_(p, p)] != g.adjacency)
    return tuple(int(x) for x in moved[0]) if len(moved) else None


@st.composite
def graphs_with_permutations(draw):
    """A graph and a permutation: an automorphism, by closing random edges
    under the permutation's group, or a random graph it likely breaks."""
    v = draw(st.integers(1, 12))
    perm = draw(st.permutations(range(v)))
    edges = draw(st.sets(st.tuples(st.integers(0, v - 1), st.integers(0, v - 1))))
    a = np.zeros((v, v), dtype=bool)
    for u, w in edges:
        a[u, w] = a[w, u] = u != w
    while draw(st.booleans()):
        # close the edges under perm: once no edge is added, perm maps the
        # edge set into itself, and so onto it
        closed = a | a[np.ix_(perm, perm)]
        if (closed == a).all():
            break
        a = closed
    return Graph(a), Permutation(perm)


@settings(max_examples=200, deadline=None)
@given(graphs_with_permutations())
def test_automorphism_witness_matches_the_full_compare(case):
    g, sigma = case
    assert automorphism_witness(g, sigma) == _full_compare_witness(g, sigma)


def test_a_passing_automorphism_check_forms_no_full_compare(gamma, monkeypatch):
    calls = []
    ix = np.ix_

    def counted(*args):
        calls.append(args)
        return ix(*args)

    monkeypatch.setattr(np, "ix_", counted)
    assert automorphism_witness(gamma, switching_involution()) is None
    assert calls == []
    swap = Permutation([1, 0, *range(2, 243)])
    assert automorphism_witness(gamma, swap) == _full_compare_witness(gamma, swap)
    # the failing check and the oracle each formed the full compare once
    assert len(calls) == 2


def test_arcs_are_formed_once_and_read_only(petersen, monkeypatch):
    g = Graph(petersen.adjacency)
    calls = []
    nonzero = np.nonzero

    def counted(a):
        calls.append(a)
        return nonzero(a)

    monkeypatch.setattr(np, "nonzero", counted)
    src, dst = g.arcs()
    assert g.arcs()[0] is src and g.arcs()[1] is dst and len(calls) == 1
    assert [src.tolist(), dst.tolist()] == [x.tolist() for x in nonzero(g.adjacency)]
    assert not src.flags.writeable and not dst.flags.writeable
    with pytest.raises(ValueError):
        src[0] = 1


def test_classify_involution_pairs(c5, gamma):
    checked = {"is_automorphism": True, "is_involution": True}
    assert involution_row(c5, c5_reflection()) == (
        {**checked, "fixed": 1, "adjacent_swaps": 1, "nonadjacent_swaps": 1},
        True,
    )
    assert involution_row(gamma, switching_involution()) == (
        {**checked, "fixed": 27, "adjacent_swaps": 0, "nonadjacent_swaps": 108},
        True,
    )


def test_classify_rejects_non_involution(c5):
    # a rotation is an automorphism but not an involution: no pair counts
    assert involution_row(c5, Permutation([1, 2, 3, 4, 0])) == (
        {"is_automorphism": True, "is_involution": False},
        False,
    )


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
        expect = gamma.adjacency[u] if sigma.images[u] == u else gamma.adjacency[sigma.images[u]]
        assert np.array_equal(delta.adjacency[u], expect)


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
        assert g.adjacency[2 * u, 2 * u + 1]
        for w in range(u + 1, 5):
            for i in (0, 1):
                for j in (0, 1):
                    assert g.adjacency[2 * u + i, 2 * w + j] == c5.adjacency[u, w]


def test_lift_involution_doubles_degree(gamma, gamma_k2):
    lifted = lift_involution_to_product(switching_involution())
    assert lifted.degree == 486
    assert is_automorphism(gamma_k2, lifted)
    assert lifted == lifted_switching_involution()
    row, ok = involution_row(gamma_k2, lifted)
    assert ok
    assert (row["fixed"], row["adjacent_swaps"], row["nonadjacent_swaps"]) == (54, 0, 216)


def test_switched_product_differs_from_product_of_switch(gamma, delta, delta_k2):
    product_of_switch = strong_product_K2(delta)
    assert product_of_switch.v == delta_k2.v
    assert product_of_switch != delta_k2


def _assert_square_is_the_product(g):
    assert g.square().dtype == np.min_scalar_type(g.v)
    assert np.array_equal(g.square(), exact_matmul(g.adjacency, g.adjacency))
    assert not g.square().flags.writeable


def test_switch_and_product_squares_are_read_from_the_input(petersen, matmul_calls):
    # delta, gamma-k2 and delta-k2 come from gamma, so only gamma's is a product
    gamma = cayley(connection_set_s1())
    delta = dual_seidel_switch(gamma, switching_involution())
    gamma_k2 = strong_product_K2(gamma)
    delta_k2 = dual_seidel_switch(gamma_k2, lifted_switching_involution())
    for g in (delta, gamma_k2, delta_k2):
        g.square()
    assert [a.shape for _, a, _ in matmul_calls if a is not None] == [(243, 243)]
    assert delta.square() is gamma.square()
    assert delta_k2.square() is gamma_k2.square()
    for g in (gamma, delta, gamma_k2, delta_k2):
        _assert_square_is_the_product(g)
    switched = dual_seidel_switch(petersen, petersen_transposition())
    _assert_square_is_the_product(switched)
    _assert_square_is_the_product(strong_product_K2(switched))


def test_k2_squares_of_the_closed_form_family(gen):
    for e in gen.closed_form_family():
        _assert_square_is_the_product(strong_product_K2(Graph(e.adj)))


@st.composite
def _switchable(draw):
    """A graph and an involution that is an automorphism of it swapping only
    non-adjacent pairs: a random graph made invariant under the involution,
    less the edges {u, sigma(u)}."""
    v = draw(st.integers(2, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(v)
    images = np.arange(v)
    for i in range(draw(st.integers(1, v // 2))):
        a, b = order[2 * i], order[2 * i + 1]
        images[a], images[b] = b, a
    upper = np.triu(rng.random((v, v)) < draw(st.sampled_from([0.2, 0.5, 0.8])), 1)
    adj = upper | upper.T
    adj |= adj[np.ix_(images, images)]
    adj[np.arange(v), images] = False
    return Graph(adj), Permutation(images)


@settings(max_examples=150, deadline=None)
@given(_switchable(), st.booleans())
def test_switch_and_k2_squares_equal_the_product(case, square_first):
    g, sigma = case
    if square_first:
        g.square()
    try:
        switched = dual_seidel_switch(g, sigma)
    except SwitchingInapplicableError:
        # a strongly regular input with k = mu or lambda = mu
        assume(False)
    _assert_square_is_the_product(switched)
    _assert_square_is_the_product(strong_product_K2(g))
    _assert_square_is_the_product(strong_product_K2(switched))


def test_switch_builds_no_srg_witnesses(gamma_k2, monkeypatch):
    # gamma-k2 is not strongly regular; the switch needs only that fact
    def refuse(*args):
        raise AssertionError("witness pairs built")

    monkeypatch.setattr(certify, "_pairs_with_values", refuse)
    dual_seidel_switch(gamma_k2, lifted_switching_involution())
    with pytest.raises(AssertionError, match="witness pairs built"):
        certify.certify_srg(gamma_k2)


def test_graph6_bit_order_is_kept_read_only():
    rows, cols = _graph6_bit_order(7)
    assert _graph6_bit_order(7)[0] is rows
    assert not rows.flags.writeable and not cols.flags.writeable
    with pytest.raises(ValueError):
        rows[0] = 1


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
    edges = [tuple(map(int, line.split())) for line in text.splitlines()]
    assert edges == sorted(edges) and text.endswith("\n")
    assert from_edges(10, edges) == petersen
    assert to_edge_list(from_edges(3, [])) == ""


def _object_product(left, right):
    return left.astype(object) @ right.astype(object)


def test_exact_matmul_paths_at_the_thresholds():
    one = np.array([[1]], dtype=np.int64)
    assert _product_path(np.array([[2**24 - 1]], dtype=np.int64), one) == "float32"
    assert _product_path(np.array([[2**24]], dtype=np.int64), one) == "float64"
    # 2^24 + 1 is the first integer float32 cannot hold
    left = np.array([[2**23, 2**23, 1]], dtype=np.int64)
    right = np.ones((3, 1), dtype=np.int64)
    assert _product_path(left, right) == "float64"
    assert exact_matmul(left, right).tolist() == [[2**24 + 1]]
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
    """Integer matrices whose product bound lands near 2^24, 2^53, 2^63 or 2^64."""
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    target = draw(st.sampled_from([2**24, 2**53, 2**63, 2**64]))
    left_max = draw(st.integers(1, min(2**40, target)))
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


def _reference_product_path(left, right):
    """_product_path as it was before the coarse bound came first: the
    absolute row sums of left were read whenever they could not wrap."""

    def abs_max(x):
        return max(int(x.max(initial=0)), -int(x.min(initial=0)))

    if left.dtype == object or right.dtype == object:
        return "object"
    inner = left.shape[-1]
    if left.dtype == bool and right.dtype == bool:
        bound = inner
    else:
        left_max, right_max = abs_max(left), abs_max(right)
        if left_max * inner <= 2**63 - 1:
            rows = int(np.abs(left).sum(axis=-1, dtype=np.int64).max(initial=0))
            bound = rows * right_max
        else:
            bound = left_max * inner * right_max
    for path, limit in (("float32", 2**24), ("float64", 2**53)):
        if bound < limit:
            return path
    return "int64" if bound <= 2**63 - 1 else "object"


_EXTREMES = [0, 1, -1, 2**12, 2**24, -(2**24), 2**31, 2**53, 2**62, 2**63 - 1, -(2**63)]


@st.composite
def _operand(draw, shape):
    dtype = draw(st.sampled_from([bool, np.uint8, np.uint16, np.int64, object]))
    if dtype is bool:
        return draw(arrays(bool, shape))
    if dtype is object:
        flat = draw(st.lists(
            st.integers(-(2**70), 2**70), min_size=shape[0] * shape[1],
            max_size=shape[0] * shape[1],
        ))
        return np.array(flat, dtype=object).reshape(shape)
    info = np.iinfo(dtype)
    # entries up to a drawn power of two, so that bounds land near 2^24 and 2^53
    top = min(2 ** draw(st.integers(0, 64)), int(info.max))
    extremes = [x for x in _EXTREMES if info.min <= x <= info.max] + [info.max]
    elements = st.sampled_from(extremes) | st.integers(max(-top, int(info.min)), top)
    return draw(arrays(dtype, shape, elements=elements))


@settings(max_examples=500, deadline=None)
@given(st.tuples(*(st.integers(1, 4) for _ in range(3))).flatmap(
    lambda d: st.tuples(_operand((d[0], d[1])), _operand((d[1], d[2])))
))
# coarse bounds 2^24 and 2^53 whose row sums fall below them
@example((np.array([[2**23, 1]]), np.array([[1], [1]])))
@example((np.array([[2**52, -1]]), np.array([[1], [1]])))
def test_product_path_matches_the_row_sum_first_path(pair):
    left, right = pair
    assert _product_path(left, right) == _reference_product_path(left, right)


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
