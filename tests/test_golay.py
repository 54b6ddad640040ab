import itertools
from collections import Counter

import pytest

from dezaforge.gf3 import ConnectionSet, GF3Matrix, rank
from dezaforge.golay import (
    RankDeficientError,
    code_from_parity_check,
    connection_set_S2,
    coset_graph,
    pair_sums_cover,
    parity_check_H,
    reversal_perm,
)
from dezaforge.graphcore import cayley
from dezaforge.pipeline import involution_row


def test_parity_check_shape_and_rank():
    h = parity_check_H()
    assert (h.rows, h.cols) == (5, 11)
    assert rank(h) == 5
    # systematic tail: the last five columns form the identity
    for i in range(5):
        assert tuple(h.array[:, 6 + i].tolist()) == tuple(int(i == j) for j in range(5))


def test_code_parameters():
    code = code_from_parity_check(parity_check_H())
    assert code.length == 11
    assert code.dimension == 6
    assert len(code) == 729
    assert code.minimum_distance() == 5


def test_code_weight_distribution():
    code = code_from_parity_check(parity_check_H())
    weights = Counter(sum(1 for x in w if x) for w in code.codewords)
    assert weights == {0: 1, 5: 132, 6: 132, 8: 330, 9: 110, 11: 24}


def test_code_from_rank_deficient_matrix():
    with pytest.raises(RankDeficientError) as info:
        code_from_parity_check(GF3Matrix([[1, 0, 2], [2, 0, 1]]))
    assert info.value.actual_rank == 1
    assert info.value.expected_rank == 2


def test_connection_set_s2():
    s2 = connection_set_S2()
    assert s2.dimension == 5
    assert len(s2) == 22
    h = parity_check_H()
    cols = set(map(tuple, h.array.T.tolist()))
    for c in cols:
        assert c in s2.vectors
        assert tuple((-x) % 3 for x in c) in s2.vectors


def test_pair_sums_cover():
    s2 = connection_set_S2()
    assert pair_sums_cover(s2)


def test_pair_sums_cover_fails_for_s1_like_corruption():
    from dezaforge.gf3 import ConnectionSet

    s2 = connection_set_S2()
    vecs = sorted(s2.vectors)
    drop = vecs[0]
    drop_neg = tuple((-x) % 3 for x in drop)
    keep = set(s2.vectors) - {drop, drop_neg}
    # replace a column pair by some unrelated +-pair
    for cand in ((1, 1, 1, 1, 1), (1, 0, 1, 0, 1), (2, 1, 2, 1, 0)):
        if cand not in s2.vectors:
            corrupted = ConnectionSet.from_vectors(
                keep | {cand, tuple((-x) % 3 for x in cand)}
            )
            break
    assert not pair_sums_cover(corrupted)


def test_coset_graph_equals_cayley(gamma_s2):
    code = code_from_parity_check(parity_check_H())
    assert coset_graph(code) == cayley(connection_set_S2())
    assert coset_graph(code) == gamma_s2


def test_coset_graph_of_a_rescaled_parity_check():
    # doubling a row of H leaves the code unchanged but changes its signed
    # columns, so the coset graph is the Cayley graph on the new columns
    rows = [list(parity_check_H().row(i)) for i in range(5)]
    rows[0] = [(2 * x) % 3 for x in rows[0]]
    h2 = GF3Matrix(rows)
    columns = list(map(tuple, h2.array.T.tolist()))
    signed = ConnectionSet.from_vectors(
        columns + [tuple((-x) % 3 for x in c) for c in columns]
    )
    assert coset_graph(code_from_parity_check(h2)) == cayley(signed)


def test_code_enumeration_is_checked_under_optimization(run_optimized):
    result = run_optimized("""
        from dezaforge import golay
        kernel_basis = golay.kernel_basis
        h = golay.parity_check_H()
        for broken in (
            lambda m: kernel_basis(m)[:-1] + kernel_basis(m)[:1],  # dependent
            lambda m: [(1,) + (0,) * 10] + kernel_basis(m)[1:],  # outside the kernel
        ):
            golay.kernel_basis = broken
            try:
                golay.code_from_parity_check(h)
            except ArithmeticError as exc:
                print("raised:", exc)
    """)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("raised:") for line in lines)
    assert "kernel basis spans 243 words, not 3^6" in lines[0]
    assert "not in the kernel" in lines[1]


def test_reversal_is_an_involutive_automorphism(gamma_s2):
    row, ok = involution_row(gamma_s2, reversal_perm())
    assert ok
    assert row == {
        "is_automorphism": True,
        "is_involution": True,
        "fixed": 27,
        "adjacent_swaps": 0,
        "nonadjacent_swaps": 108,
    }


def test_reversal_fixed_count_is_3_cubed(gamma_s2):
    # palindromic syndromes (a, b, c, b, a) form a 3-dimensional subspace
    rho = reversal_perm()
    assert len(rho.fixed_points()) == 27


def test_reversal_difference_shapes_is_empty():
    # no member of S2 has the palindromic-difference shape (a,b,0,-b,-a),
    # which is why the reversal swaps only non-adjacent vertices
    shapes = {(a, b, 0, -b % 3, -a % 3) for a, b in itertools.product(range(3), repeat=2)}
    assert shapes & connection_set_S2().vectors == set()


def test_code_of_an_invertible_parity_check_is_the_zero_word():
    code = code_from_parity_check(GF3Matrix([[1, 0], [0, 1]]))
    assert code.codewords == ((0, 0),)
    assert code.dimension == 0


def test_coset_graph_rejects_a_zero_column():
    # a zero column makes a weight-one word a codeword, i.e. a loop
    code = code_from_parity_check(GF3Matrix([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(ValueError):
        coset_graph(code)
