import numpy as np
import pytest

from dezaforge.catalog import connection_set_s1, m11_orbit_labels
from dezaforge.gf3 import (
    ConnectionSet,
    InvalidConnectionSetError,
    InvalidElementError,
    M11_GEN_A,
    M11_GEN_B,
    ShapeError,
    all_vectors,
    fixed_space_basis,
    indices_of,
    invert,
    kernel_basis,
    matrix,
    rank,
)
from dezaforge.permgroup import perm_from_matrix, translation_perm


def test_vector_index_round_trip():
    # the index of a vector is the sum of vector[i] * 3^i
    for n in (1, 2, 5):
        vectors = all_vectors(n)
        assert [sum(int(c) * 3**i for i, c in enumerate(row)) for row in vectors] == list(
            range(3**n)
        )
        assert indices_of(vectors).tolist() == list(range(3**n))


def test_vector_index_rejects_bad_entries():
    # a translation turns its vector into vertex indices
    with pytest.raises(InvalidElementError):
        translation_perm((0, 3))
    with pytest.raises(InvalidElementError):
        translation_perm((0, -1))


def test_all_vectors_matches_index_to_vector():
    a = all_vectors(3)
    assert a.shape == (27, 3)
    for i in range(27):
        assert tuple(int(x) for x in a[i]) == tuple(i // 3**j % 3 for j in range(3))


def test_indices_of_inverts_all_vectors():
    a = all_vectors(4)
    assert indices_of(a).tolist() == list(range(81))


def test_matrix_requires_rectangular_rows():
    for entries in ([[0, 1], [1]], [0, 1], [[[0]]]):
        with pytest.raises(ShapeError, match="must form a rectangle"):
            matrix(entries)


def test_matrix_rejects_bad_entries():
    for entries in ([[0, 3]], np.array([[-1, 0]])):
        with pytest.raises(InvalidElementError, match=r"residues in \{0,1,2\}"):
            matrix(entries)


def test_matrix_is_a_read_only_int64_copy():
    source = np.array([[1, 2], [0, 1]], dtype=np.int8)
    m = matrix(source)
    source[0, 0] = 0
    assert m.dtype == np.int64 and m.tolist() == [[1, 2], [0, 1]]
    with pytest.raises(ValueError):
        m[0, 0] = 2


def test_matrix_acts_on_row_vectors():
    # v -> v*M, read through the vertex permutation of M
    images = perm_from_matrix(matrix([[1, 2], [0, 1]])).images
    for v, w in (((1, 0), (1, 2)), ((0, 1), (0, 1)), ((1, 1), (1, 0))):
        assert images[indices_of(np.array(v))] == indices_of(np.array(w))


def test_matrix_product_composes_row_actions():
    # v(AB) = (vA)B: the permutation of AB is that of A, then that of B
    a = matrix([[1, 2], [2, 2]])
    b = matrix([[0, 1], [1, 1]])
    first, then = perm_from_matrix(a).images, perm_from_matrix(b).images
    assert np.array_equal(then[first], perm_from_matrix(a @ b % 3).images)


def test_rank_and_invert():
    m = matrix([[1, 1], [1, 2]])
    assert rank(m) == 2
    inv = invert(m)
    assert (m @ inv % 3).tolist() == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        inv[0, 0] = 0
    singular = matrix([[1, 2], [2, 1]])
    assert rank(singular) == 1
    with pytest.raises(ValueError):
        invert(singular)


def test_kernel_basis_spans_kernel():
    m = matrix([[1, 2, 0], [0, 0, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    vec = np.array(basis[0])
    assert ((m @ vec) % 3 == 0).all()


def test_fixed_space_of_identity_is_everything():
    assert len(fixed_space_basis(np.eye(4, dtype=np.int64))) == 4


def test_fixed_space_basis_vectors_are_fixed():
    for m in (M11_GEN_A, M11_GEN_B):
        basis = fixed_space_basis(m)
        assert np.array_equal(basis @ m % 3, basis)
    assert fixed_space_basis(-np.eye(5, dtype=np.int64) % 3).shape == (0, 5)


def test_m11_generators_are_invertible():
    for m in (M11_GEN_A, M11_GEN_B):
        assert rank(m) == 5
        assert np.array_equal(m @ invert(m) % 3, np.eye(5))


def test_orbit_of_zero_is_trivial():
    labels = m11_orbit_labels()
    assert np.flatnonzero(labels == labels[0]).tolist() == [0]


def test_orbit_sizes_partition_nonzero_vectors():
    labels = m11_orbit_labels()
    # vertex 1 is (1,0,0,0,0); the nonzero vectors form two orbits
    sizes = np.bincount(labels[1:])
    assert sorted(sizes[sizes > 0].tolist()) == [22, 220]
    assert sizes[labels[1]] == 22


def test_connection_set_rejects_zero_vector():
    with pytest.raises(InvalidConnectionSetError, match="zero vector"):
        ConnectionSet([(0, 0)])


def test_connection_set_requires_inverse_closure():
    with pytest.raises(InvalidConnectionSetError, match=r"inverse of \(1, 0\) is missing"):
        ConnectionSet([(1, 0)])
    s = ConnectionSet([(1, 0), (2, 0)])
    assert len(s) == 2
    assert s.dimension == 2


def test_connection_set_rejects_the_empty_set():
    with pytest.raises(InvalidConnectionSetError, match="non-empty"):
        ConnectionSet([])


def test_connection_set_holds_sorted_read_only_arrays():
    s = ConnectionSet([(2, 1), (0, 2), (1, 2), (0, 1), (2, 1)])
    # each member once, in lexicographic order; indices increasing
    assert s.vectors.tolist() == [[0, 1], [0, 2], [1, 2], [2, 1]]
    assert s.indices.tolist() == [3, 5, 6, 7]
    for a in (s.vectors, s.indices):
        with pytest.raises(ValueError):
            a[0] = 0
    with pytest.raises(AttributeError):
        s.vectors = s.vectors[:2]
    same = ConnectionSet(np.array([[2, 1], [1, 2], [0, 2], [0, 1]]))
    assert s == same and hash(s) == hash(same)
    assert s != ConnectionSet([(0, 1), (0, 2)])


def test_connection_set_s1_is_the_22_orbit():
    s1 = connection_set_s1()
    assert s1.dimension == 5
    assert len(s1) == 22
    labels = m11_orbit_labels()
    assert np.flatnonzero(labels == labels[1]).tolist() == s1.indices.tolist()
    assert np.array_equal(np.sort(indices_of(-s1.vectors % 3)), s1.indices)


def test_all_vectors_of_dimension_zero():
    # V(0, 3) holds exactly one vector, the empty one
    assert all_vectors(0).shape == (1, 0)
