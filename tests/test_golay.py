import itertools
from collections import Counter

import numpy as np
import pytest

from dezaforge.catalog import connection_set_s1, involutions_for
from dezaforge.gf3 import ConnectionSet, all_vectors, indices_of, matrix, rank
from dezaforge.golay import (
    RankDeficientError,
    code_from_parity_check,
    connection_set_S2,
    coset_graph,
    pair_sums_cover,
    parity_check_H,
)
from dezaforge.graphcore import cayley
from dezaforge.pipeline import involution_row


def test_parity_check_shape_and_rank():
    h = parity_check_H()
    assert h.shape == (5, 11)
    assert rank(h) == 5
    # systematic tail: the last five columns form the identity
    for i in range(5):
        assert tuple(h[:, 6 + i].tolist()) == tuple(int(i == j) for j in range(5))


def test_code_parameters():
    code = code_from_parity_check(parity_check_H())
    assert code.length == 11
    assert code.dimension == 6
    assert len(code) == 729
    assert code.minimum_distance() == 5


def test_code_weight_distribution():
    code = code_from_parity_check(parity_check_H())
    weights = Counter(np.count_nonzero(code.codewords, axis=1).tolist())
    assert weights == {0: 1, 5: 132, 6: 132, 8: 330, 9: 110, 11: 24}


def test_code_from_rank_deficient_matrix():
    with pytest.raises(RankDeficientError) as info:
        code_from_parity_check(matrix([[1, 0, 2], [2, 0, 1]]))
    assert info.value.actual_rank == 1
    assert info.value.expected_rank == 2


def test_connection_set_s2():
    s2 = connection_set_S2()
    assert s2.dimension == 5
    assert len(s2) == 22
    h = parity_check_H()
    members = set(map(tuple, s2.vectors.tolist()))
    for c in map(tuple, h.T.tolist()):
        assert c in members
        assert tuple((-x) % 3 for x in c) in members


def test_pair_sums_cover():
    s2 = connection_set_S2()
    assert pair_sums_cover(s2)


def _swap_pair(s, k, cand):
    """s with the +-pair of its k-th member swapped for cand and -cand."""
    members = set(map(tuple, s.vectors.tolist()))
    drop = tuple(s.vectors[k].tolist())
    keep = members - {drop, tuple((-x) % 3 for x in drop)}
    return ConnectionSet(keep | {cand, tuple((-x) % 3 for x in cand)})


def test_pair_sums_cover_fails_for_s1_like_corruption():
    s2 = connection_set_S2()
    members = set(map(tuple, s2.vectors.tolist()))
    # replace a column pair by some unrelated +-pair
    cand = next(
        c for c in ((1, 1, 1, 1, 1), (1, 0, 1, 0, 1), (2, 1, 2, 1, 0)) if c not in members
    )
    assert not pair_sums_cover(_swap_pair(s2, 0, cand))


def _reference_pair_sums_cover(s2):
    """pair_sums_cover as a loop over vector tuples, for the oracle test only."""
    base = sorted(map(tuple, s2.vectors.tolist()))
    sums = set()
    for x, y in itertools.combinations(base, 2):
        if x == tuple((-c) % 3 for c in y):
            continue
        sums.add(tuple((a + b) % 3 for a, b in zip(x, y)))
    members = set(base)
    if sums & members:
        return False
    if any(not any(v) for v in sums):
        return False
    return len(sums) == 3**s2.dimension - 1 - len(members)


def test_pair_sums_cover_matches_the_tuple_loop():
    s2 = connection_set_S2()
    members = set(map(tuple, s2.vectors.tolist()))
    outside = [tuple(v) for v in all_vectors(5).tolist() if any(v) and tuple(v) not in members]
    # S1 is S2's image under a linear map, so it covers too; then each member's
    # pair of S2 swapped in turn for pairs from outside it
    cases = [s2, connection_set_s1()] + [
        _swap_pair(s2, k, outside[(7 * k + j) % len(outside)])
        for k in range(len(s2))
        for j in range(3)
    ]
    results = [pair_sums_cover(s) for s in cases]
    assert results == [_reference_pair_sums_cover(s) for s in cases]
    assert results[:2] == [True, True] and not any(results[2:])


def test_coset_graph_equals_cayley(gamma_s2):
    code = code_from_parity_check(parity_check_H())
    assert coset_graph(code) == cayley(connection_set_S2())
    assert coset_graph(code) == gamma_s2


def test_coset_graph_of_a_rescaled_parity_check():
    # doubling a row of H leaves the code unchanged but changes its signed
    # columns, so the coset graph is the Cayley graph on the new columns
    rows = parity_check_H().tolist()
    rows[0] = [(2 * x) % 3 for x in rows[0]]
    h2 = matrix(rows)
    columns = list(map(tuple, h2.T.tolist()))
    signed = ConnectionSet(columns + [tuple((-x) % 3 for x in c) for c in columns])
    assert coset_graph(code_from_parity_check(h2)) == cayley(signed)


def test_code_enumeration_is_checked_under_optimization(run_optimized):
    result = run_optimized("""
        import numpy as np
        from dezaforge import golay
        kernel_basis = golay.kernel_basis
        h = golay.parity_check_H()
        for broken in (
            # dependent
            lambda m: np.concatenate([kernel_basis(m)[:-1], kernel_basis(m)[:1]]),
            # outside the kernel
            lambda m: np.concatenate([[(1,) + (0,) * 10], kernel_basis(m)[1:]]),
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
    # the registered reversal, the anti-identity matrix, reverses coordinates
    reversal = involutions_for("gamma-s2")["reversal"]
    assert np.array_equal(reversal.images, indices_of(all_vectors(5)[:, ::-1]))
    row, ok = involution_row(gamma_s2, reversal)
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
    rho = involutions_for("gamma-s2")["reversal"]
    assert len(rho.fixed_points()) == 27


def test_reversal_difference_shapes_is_empty():
    # no member of S2 has the palindromic-difference shape (a,b,0,-b,-a),
    # which is why the reversal swaps only non-adjacent vertices
    shapes = {(a, b, 0, -b % 3, -a % 3) for a, b in itertools.product(range(3), repeat=2)}
    assert shapes & set(map(tuple, connection_set_S2().vectors.tolist())) == set()


def test_code_of_an_invertible_parity_check_is_the_zero_word():
    code = code_from_parity_check(matrix([[1, 0], [0, 1]]))
    assert code.codewords.tolist() == [[0, 0]]
    assert code.dimension == 0


def test_coset_graph_rejects_a_zero_column():
    # a zero column makes a weight-one word a codeword, i.e. a loop
    code = code_from_parity_check(matrix([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(ValueError):
        coset_graph(code)
