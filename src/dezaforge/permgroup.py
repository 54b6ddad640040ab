"""Vertex permutations and the orbits they generate.

Permutations are immutable image arrays over [0, v). Orbits come from one
connected-components kernel. No group order is computed here: the
automorphism search reads |Aut| from its first path, and the catalogue's
seed groups are affine, so their orders come from their linear parts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import gf3


class NotAPermutationError(ValueError):
    """The images do not form a bijection, or the matrix is singular."""


class Permutation:
    """Bijection on [0, degree), stored as a read-only np.intp index array."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]) -> None:
        a = np.array(images, dtype=np.intp)
        n = a.size
        if (
            a.ndim != 1
            or not ((a >= 0) & (a < n)).all()
            or (np.bincount(a, minlength=n) > 1).any()
        ):
            raise NotAPermutationError("images are not a bijection on [0, v)")
        # the hash reads the bytes, so they must never change
        a.setflags(write=False)
        object.__setattr__(self, "images", a)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Permutation is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Permutation is immutable; cannot delete {name!r}")

    @property
    def degree(self) -> int:
        return self.images.size

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and np.array_equal(
            self.images, other.images
        )

    def __hash__(self) -> int:
        return hash(self.images.tobytes())

    def __repr__(self) -> str:
        return f"Permutation(degree={self.degree})"

    def is_identity(self) -> bool:
        return bool((self.images == np.arange(self.degree)).all())

    def fixed_points(self) -> list[int]:
        return np.flatnonzero(self.images == np.arange(self.degree)).tolist()

    def to_json(self) -> list[int]:
        return self.images.tolist()


def is_involution(sigma: Permutation) -> bool:
    """True iff sigma is not the identity and sigma squared is."""
    imgs = sigma.images
    return not sigma.is_identity() and bool(
        (imgs[imgs] == np.arange(sigma.degree)).all()
    )


def perm_from_matrix(m: Sequence[Sequence[int]]) -> Permutation:
    """Permutation of the 3^n vertex indices realizing v -> v*M.

    A singular M maps two vectors together, which Permutation refuses; a
    wide M with zero extra columns would pass it, so the shape is checked.
    """
    m = gf3.matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NotAPermutationError("only square matrices act on the vertex set")
    return Permutation(gf3.indices_of(gf3.all_vectors(len(m)) @ m % 3))


def translation_perm(t: Sequence[int]) -> Permutation:
    """Permutation v -> v + t on the 3^n vertex indices."""
    # a one-row matrix, so a coordinate outside {0,1,2} is refused
    vec = gf3.matrix([t])
    return Permutation(gf3.indices_of((gf3.all_vectors(vec.shape[1]) + vec) % 3))


def _component_labels(v: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The smallest vertex of each vertex's component under the pairs (src, dst).

    Hooks the larger root of every pair to the smaller one and then follows
    the root pointers to the end, until every pair shares a root; a root
    never exceeds the points below it, so it is the minimum.
    """
    labels = np.arange(v)
    while True:
        a, b = labels[src], labels[dst]
        if np.array_equal(a, b):
            return labels
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def orbit_labels(v: int, gens: Sequence[np.ndarray]) -> np.ndarray:
    """The smallest point of each point's orbit under the group that the
    image arrays gens generate on [0, v)."""
    if not gens:
        return np.arange(v)
    return _component_labels(v, np.tile(np.arange(v), len(gens)), np.concatenate(gens))

