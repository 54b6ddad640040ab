import numpy as np
import pytest

from dezaforge.gf3 import (
    ConnectionSet,
    GF3Matrix,
    InvalidConnectionSetError,
    InvalidElementError,
    M11_GEN_A,
    M11_GEN_B,
    ShapeError,
    all_vectors,
    connection_set_s1,
    fixed_space_basis,
    fixed_space_dimension,
    identity,
    index_to_vector,
    indices_of,
    invert,
    kernel_basis,
    mat_mul,
    mat_vec_mul,
    negate,
    orbit,
    rank,
    vector_to_index,
)


def test_vector_index_round_trip():
    for n in (1, 2, 5):
        for i in range(3**n):
            assert vector_to_index(index_to_vector(i, n)) == i


def test_vector_index_rejects_bad_entries():
    with pytest.raises(InvalidElementError):
        vector_to_index((0, 3))
    with pytest.raises(InvalidElementError):
        vector_to_index((0, -1))


def test_all_vectors_matches_index_to_vector():
    a = all_vectors(3)
    assert a.shape == (27, 3)
    for i in range(27):
        assert tuple(int(x) for x in a[i]) == index_to_vector(i, 3)


def test_indices_of_inverts_all_vectors():
    a = all_vectors(4)
    assert indices_of(a).tolist() == list(range(81))


def test_matrix_requires_rectangular_rows():
    with pytest.raises(ShapeError):
        GF3Matrix([[0, 1], [1]])


def test_matrix_rejects_bad_entries():
    with pytest.raises(InvalidElementError):
        GF3Matrix([[0, 3]])


def test_mat_vec_mul_is_row_action():
    m = GF3Matrix([[1, 2], [0, 1]])
    assert mat_vec_mul((1, 0), m) == (1, 2)
    assert mat_vec_mul((0, 1), m) == (0, 1)
    assert mat_vec_mul((1, 1), m) == (1, 0)


def test_mat_mul_associates_with_row_action():
    a = GF3Matrix([[1, 2], [2, 2]])
    b = GF3Matrix([[0, 1], [1, 1]])
    for v in ((1, 0), (0, 1), (2, 2)):
        assert mat_vec_mul(mat_vec_mul(v, a), b) == mat_vec_mul(v, mat_mul(a, b))


def test_rank_and_invert():
    m = GF3Matrix([[1, 1], [1, 2]])
    assert rank(m) == 2
    inv = invert(m)
    assert mat_mul(m, inv) == identity(2)
    singular = GF3Matrix([[1, 2], [2, 1]])
    assert rank(singular) == 1
    with pytest.raises(ValueError):
        invert(singular)


def test_kernel_basis_spans_kernel():
    m = GF3Matrix([[1, 2, 0], [0, 0, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    vec = np.array(basis[0])
    assert ((m.array @ vec) % 3 == 0).all()


def test_fixed_space_of_identity_is_everything():
    assert fixed_space_dimension(identity(4)) == 4
    assert len(fixed_space_basis(identity(4))) == 4


def test_fixed_space_basis_vectors_are_fixed():
    for m in (M11_GEN_A, M11_GEN_B):
        for t in fixed_space_basis(m):
            assert mat_vec_mul(t, m) == t
    assert fixed_space_dimension(negate(identity(5))) == 0


def test_m11_generators_are_invertible():
    for m in (M11_GEN_A, M11_GEN_B):
        assert rank(m) == 5
        assert mat_mul(m, invert(m)) == identity(5)


def test_orbit_of_zero_is_trivial():
    assert orbit((M11_GEN_A, M11_GEN_B), (0, 0, 0, 0, 0)) == {(0, 0, 0, 0, 0)}


def test_orbit_sizes_partition_nonzero_vectors():
    gens = (M11_GEN_A, M11_GEN_B)
    small = orbit(gens, (1, 0, 0, 0, 0))
    assert len(small) == 22
    outside = next(
        tuple(int(x) for x in row)
        for row in all_vectors(5)
        if any(row) and tuple(int(x) for x in row) not in small
    )
    big = orbit(gens, outside)
    assert len(big) == 220
    assert not small & big


def test_connection_set_rejects_zero_vector():
    with pytest.raises(InvalidConnectionSetError):
        ConnectionSet.from_vectors([(0, 0)])


def test_connection_set_requires_inverse_closure():
    with pytest.raises(InvalidConnectionSetError):
        ConnectionSet.from_vectors([(1, 0)])
    s = ConnectionSet.from_vectors([(1, 0), (2, 0)])
    assert len(s) == 2
    assert s.dimension == 2


def test_connection_set_s1_is_the_22_orbit():
    s1 = connection_set_s1()
    assert s1.dimension == 5
    assert len(s1) == 22
    assert s1.vectors == orbit((M11_GEN_A, M11_GEN_B), (1, 0, 0, 0, 0))
    for v in s1:
        assert tuple((-x) % 3 for x in v) in s1.vectors


def test_all_vectors_of_dimension_zero():
    # V(0, 3) holds exactly one vector, the empty one
    assert all_vectors(0).shape == (1, 0)
