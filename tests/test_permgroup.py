import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dezaforge.gf3 import M11_GEN_A, M11_GEN_B, all_vectors
from dezaforge.permgroup import (
    NotAPermutationError,
    Permutation,
    is_involution,
    orbit_labels,
    perm_from_matrix,
    translation_perm,
)
from schreier_sims import build_chain, group_order, inverse


def _index(vector):
    """The canonical vertex index of a vector: the sum of vector[i] * 3^i."""
    return sum(int(c) * 3**i for i, c in enumerate(vector))


def test_permutation_validation():
    with pytest.raises(NotAPermutationError):
        Permutation([0, 0, 1])
    with pytest.raises(NotAPermutationError):
        Permutation([0, 3, 1])


def test_nested_images_are_rejected():
    with pytest.raises(NotAPermutationError):
        Permutation([[0, 1], [1, 0]])


def test_images_are_a_read_only_copy():
    source = np.array([1, 0, 2])
    p = Permutation(source)
    source[0] = 2
    assert p.images[0] == 1
    # the hash is taken over the images, so they must not change
    with pytest.raises(ValueError):
        p.images[0] = 2
    assert p == Permutation([1, 0, 2]) and hash(p) == hash(Permutation([1, 0, 2]))


def test_inverse_round_trip():
    # the oracle's inverse, which its transversals store beside each element
    sigma = np.array([2, 0, 3, 1])
    assert inverse(sigma)[sigma].tolist() == [0, 1, 2, 3]
    assert sigma[inverse(sigma)].tolist() == [0, 1, 2, 3]


def test_is_involution():
    assert is_involution(Permutation([1, 0, 2]))
    assert not is_involution(Permutation(range(3)))  # fixes everything, order 1
    assert not is_involution(Permutation([1, 2, 0]))


def test_perm_from_matrix_tracks_row_action():
    sigma = perm_from_matrix(M11_GEN_A)
    assert sigma.degree == 243
    assert sigma.images[0] == 0
    for idx in (1, 17, 200):
        v = [idx // 3**i % 3 for i in range(5)]
        assert sigma.images[idx] == _index(np.array(v) @ M11_GEN_A % 3)


def test_perm_from_singular_matrix_rejected():
    with pytest.raises(NotAPermutationError):
        perm_from_matrix([[1, 2], [2, 1]])


@pytest.mark.parametrize("rows", [[[1, 0]], [[1], [0]], [[1, 1]]], ids=str)
def test_perm_from_non_square_matrix_rejected(rows):
    # [[1, 0]] sends the indices of V(1,3) onto themselves, so only the shape
    # check refuses it
    with pytest.raises(NotAPermutationError):
        perm_from_matrix(rows)


def _reference_orbit(generators, seed):
    """Smallest set holding seed and closed under v -> v*g for every g: the
    tuple closure that orbit_labels replaced, kept as its oracle."""
    start = tuple(seed)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for g in generators:
                w = tuple(int(c) for c in np.array(v) @ g % 3)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def _general_linear_group(n):
    """Every invertible n x n matrix over GF(3), as an (N, n, n) array."""
    entries = all_vectors(n * n).reshape(-1, n, n)
    return entries[np.rint(np.linalg.det(entries)).astype(np.int64) % 3 != 0]


GL = {n: _general_linear_group(n) for n in (2, 3)}


@st.composite
def matrix_pairs(draw):
    """Two random matrices of GL(2,3), or two of GL(3,3)."""
    group = GL[draw(st.sampled_from([2, 3]))]
    return [group[draw(st.integers(0, len(group) - 1))] for _ in range(2)]


@settings(max_examples=60, deadline=None)
@given(matrix_pairs())
def test_orbit_labels_match_the_tuple_orbit(gens):
    n = len(gens[0])
    labels = orbit_labels(3**n, [perm_from_matrix(m).images for m in gens])
    vectors = all_vectors(n)
    for idx, v in enumerate(vectors.tolist()):
        orbit = {tuple(w) for w in vectors[labels == labels[idx]].tolist()}
        assert orbit == _reference_orbit(gens, v)
        assert labels[idx] == min(_index(w) for w in orbit)


def test_translation_perm_has_order_three():
    t = translation_perm((1, 0, 0, 0, 0))
    assert t.degree == 243
    p = t.images
    assert not t.is_identity() and not Permutation(p[p]).is_identity()
    assert Permutation(p[p[p]]).is_identity()
    assert t.images[0] == _index((1, 0, 0, 0, 0))


def test_group_order_symmetric_group():
    a = Permutation([1, 0, 2, 3])
    b = Permutation([1, 2, 3, 0])
    assert group_order([a, b]) == 24
    assert group_order([]) == 1
    assert group_order([Permutation(range(6))]) == 1


def test_group_order_m11_matrix_representation():
    x = perm_from_matrix(M11_GEN_A)
    y = perm_from_matrix(M11_GEN_B)
    assert group_order([x, y]) == 7920


def test_chain_membership():
    a = Permutation([1, 0, 2, 3])
    b = Permutation([1, 2, 3, 0])
    chain = build_chain([a, b])
    assert chain.contains((3, 2, 1, 0))
    assert chain.contains((0, 1, 2, 3))
    three_cycle_chain = build_chain([Permutation([1, 2, 0, 3])])
    assert not three_cycle_chain.contains((1, 0, 2, 3))


def test_build_chain_rejects_mixed_degrees():
    with pytest.raises(NotAPermutationError):
        build_chain([Permutation([1, 0]), Permutation([0, 1, 2])])


def test_negation_translation_interaction():
    # conjugating a translation by negation inverts it
    neg = perm_from_matrix(-np.eye(5, dtype=np.int64) % 3)
    t = translation_perm((0, 1, 0, 0, 0))
    # neg first, then t, then neg; composed with t it is the identity
    conj = neg.images[t.images[neg.images]]
    assert Permutation(t.images[conj]).is_identity()


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, 6))
    return n, draw(st.lists(st.permutations(range(n)), max_size=3))


def _closure(n, gens):
    """Every product of the generators, by breadth-first search on tuples."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        products = {tuple(g[i] for i in p) for p in frontier for g in gens}
        frontier = list(products - group)
        group |= products
    return group


@settings(max_examples=50, deadline=None)
@given(generator_sets())
def test_chain_agrees_with_brute_force_closure(case):
    n, gens = case
    group = _closure(n, gens)
    assert group_order([Permutation(g) for g in gens]) == len(group)
    chain = build_chain([Permutation(g) for g in gens])
    for p in itertools.permutations(range(n)):
        assert chain.contains(p) == (p in group)


def test_permutation_images_cannot_be_rebound():
    p = Permutation([1, 0, 2])
    before = hash(p)
    with pytest.raises(AttributeError):
        p.images = np.array([0, 1, 2])
    assert hash(p) == before
    assert p.to_json() == [1, 0, 2]


def test_permutation_images_cannot_be_deleted():
    p = Permutation([1, 0, 2])
    before = hash(p)
    with pytest.raises(AttributeError):
        del p.images
    assert hash(p) == before
    assert p.to_json() == [1, 0, 2]
