import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dezaforge.catalog import known_generators
from dezaforge.gf3 import GF3Matrix, M11_GEN_A, M11_GEN_B, identity, negate, vector_to_index
from dezaforge.permgroup import (
    NotAPermutationError,
    Permutation,
    StabilizerChain,
    build_chain,
    compose,
    group_order,
    identity_perm,
    inverse,
    is_involution,
    perm_from_matrix,
    translation_perm,
)


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
    assert p(0) == 1
    # the hash is taken over the images, so they must not change
    with pytest.raises(ValueError):
        p.images[0] = 2
    assert p == Permutation([1, 0, 2]) and hash(p) == hash(Permutation([1, 0, 2]))


def test_compose_applies_sigma_then_tau():
    sigma = Permutation([1, 2, 0])
    tau = Permutation([0, 2, 1])
    assert compose(sigma, tau) == Permutation([tau(sigma(i)) for i in range(3)])


def test_inverse_round_trip():
    sigma = Permutation([2, 0, 3, 1])
    assert compose(sigma, inverse(sigma)) == identity_perm(4)
    assert compose(inverse(sigma), sigma) == identity_perm(4)


def test_is_involution():
    assert is_involution(Permutation([1, 0, 2]))
    assert not is_involution(identity_perm(3))  # fixes everything, order 1
    assert not is_involution(Permutation([1, 2, 0]))


def test_perm_from_matrix_tracks_row_action():
    sigma = perm_from_matrix(M11_GEN_A)
    assert sigma.degree == 243
    assert sigma(0) == 0
    from dezaforge.gf3 import index_to_vector, mat_vec_mul

    for idx in (1, 17, 200):
        v = index_to_vector(idx, 5)
        assert sigma(idx) == vector_to_index(mat_vec_mul(v, M11_GEN_A))


def test_perm_from_singular_matrix_rejected():
    with pytest.raises(ValueError):
        perm_from_matrix(GF3Matrix([[1, 2], [2, 1]]))


def test_translation_perm_has_order_three():
    t = translation_perm((1, 0, 0, 0, 0))
    assert t.degree == 243
    t2 = compose(t, t)
    assert compose(t2, t) == identity_perm(243)
    assert t(0) == vector_to_index((1, 0, 0, 0, 0))


def test_group_order_symmetric_group():
    a = Permutation([1, 0, 2, 3])
    b = Permutation([1, 2, 3, 0])
    assert group_order([a, b]) == 24
    assert group_order([]) == 1
    assert group_order([identity_perm(6)]) == 1


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
    from dezaforge.permgroup import NotAPermutationError

    with pytest.raises(NotAPermutationError):
        build_chain([Permutation([1, 0]), Permutation([0, 1, 2])])


def test_chain_with_seeded_base_prefix():
    a = Permutation([1, 0, 2, 3])
    b = Permutation([1, 2, 3, 0])
    chain = StabilizerChain(4, base=(2, 0))
    assert chain.base[:2] == [2, 0]
    for g in (a, b):
        chain.add_generator(g.images)
    assert chain.order() == 24
    # level-1 strong generators must all fix the first base point
    for g in chain.gens_at_level(1):
        assert g[2] == 2


def test_seeded_base_validation():
    with pytest.raises(ValueError):
        StabilizerChain(4, base=(0, 0))
    with pytest.raises(ValueError):
        StabilizerChain(4, base=(4,))


def test_negation_translation_interaction():
    # conjugating a translation by negation inverts it
    neg = perm_from_matrix(negate(identity(5)))
    t = translation_perm((0, 1, 0, 0, 0))
    conj = compose(compose(neg, t), neg)
    assert conj == inverse(t)


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
    chain = StabilizerChain(n)
    for g in gens:
        chain.add_generator(g)
    assert chain.order() == len(group)
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


@pytest.mark.parametrize("name", ["gamma", "delta"])
def test_tree_edges_are_not_sifted(name, monkeypatch):
    gens = known_generators(name)
    sifts = []
    sift = StabilizerChain.sift

    def counted(self, g, start=0):
        sifts.append(start)
        return sift(self, g, start)

    monkeypatch.setattr(StabilizerChain, "sift", counted)
    chain = StabilizerChain(gens[0].degree)
    for g in gens:
        chain.add_generator(g.images)
    orbits = [len(tr) for tr in chain.transversals]
    levels = [len(chain.gens_at_level(lvl)) for lvl in range(len(orbits))]
    # one sift per add_generator and per Schreier generator, except the
    # |O| - 1 pairs at each level whose generator is a transversal edge
    schreier = sum(o * s for o, s in zip(orbits, levels)) - sum(o - 1 for o in orbits)
    assert len(sifts) == len(gens) + schreier
