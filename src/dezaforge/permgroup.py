"""Vertex permutations, the orbits they generate, and exact group order.

Permutations are immutable image arrays over [0, v). Orbits come from one
connected-components kernel. Group order is computed with a deterministic
Schreier-Sims stabilizer chain; orders are plain Python integers, so they
never overflow.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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


def perm_from_matrix(m: gf3.GF3Matrix) -> Permutation:
    """Permutation of the 3^n vertex indices realizing v -> v*M.

    A singular M maps two vectors together, which Permutation refuses; a
    wide M with zero extra columns would pass it, so the shape is checked.
    """
    if m.rows != m.cols:
        raise NotAPermutationError("only square matrices act on the vertex set")
    vv = gf3.all_vectors(m.rows)
    return Permutation(gf3.indices_of(vv @ m.array % 3))


def translation_perm(t: Sequence[int]) -> Permutation:
    """Permutation v -> v + t on the 3^n vertex indices."""
    # a one-row matrix, so a coordinate outside {0,1,2} is refused
    vec = gf3.GF3Matrix([t]).array
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


# ---------------------------------------------------------------------------
# Schreier-Sims stabilizer chain
# ---------------------------------------------------------------------------
#
# Group elements are np.intp index arrays; q[p] applies p first, then q.


def _inverse(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(p.size)
    return out


class StabilizerChain:
    """Deterministic stabilizer chain for a finite permutation group.

    Base points are chosen greedily as the smallest point moved by each new
    strong generator, so the chain is reproducible for a fixed generator
    order. A fixed base prefix may be supplied up front; the strong
    generators whose gen_level is at least d then generate exactly the
    pointwise stabilizer of the first d prefix points. The automorphism
    search reads strong_gens and gen_level this way to level its seeds by
    its first path. Transversals only ever grow (existing representatives
    are never replaced), which keeps already-processed Schreier generators
    valid.
    """

    def __init__(self, degree: int, base: Sequence[int] = ()) -> None:
        self.degree = degree
        self.identity = np.arange(degree, dtype=np.intp)
        # residues are np.intp, so comparing bytes is an exact identity test
        self._identity_bytes = self.identity.tobytes()
        self.base: list[int] = []
        # strong generator i is stored once, at the deepest level it fixes
        self.strong_gens: list[np.ndarray] = []
        self.gen_level: list[int] = []
        # transversal[i]: point -> (u, u^-1) with u[base[i]] = point
        self.transversals: list[dict[int, tuple[np.ndarray, np.ndarray]]] = []
        self._processed: list[set[tuple[int, int]]] = []
        for pt in base:
            if not 0 <= pt < degree or pt in self.base:
                raise ValueError("base points must be distinct and in range")
            self.base.append(pt)
            self.transversals.append({pt: (self.identity, self.identity)})
            self._processed.append(set())

    # -- queries ------------------------------------------------------------

    def order(self) -> int:
        o = 1
        for tr in self.transversals:
            o *= len(tr)
        return o

    def sift(self, g: Sequence[int], start: int = 0) -> tuple[np.ndarray, int]:
        """Divide g through the transversals; return (residue, drop level)."""
        g = np.asarray(g, dtype=np.intp)
        for lvl in range(start, len(self.base)):
            entry = self.transversals[lvl].get(int(g[self.base[lvl]]))
            if entry is None:
                return g, lvl
            g = entry[1][g]
        return g, len(self.base)

    # -- construction -------------------------------------------------------

    def add_generator(self, g: Sequence[int], order: int | None = None) -> bool:
        """Sift g and, if new, extend the chain; True if the group grew. order,
        if given, is the exact order of the grown group: completion stops there."""
        residue, level = self.sift(g)
        if residue.tobytes() == self._identity_bytes:
            return False
        self._insert(residue, level)
        self._complete(order)
        return True

    def _insert(self, residue: np.ndarray, level: int) -> None:
        """Append a strong generator that sifts to level, extending the base
        by its smallest moved point when level is past the last base point."""
        if level == len(self.base):
            moved = int(np.flatnonzero(residue != self.identity)[0])
            self.base.append(moved)
            self.transversals.append({moved: (self.identity, self.identity)})
            self._processed.append(set())
        self.strong_gens.append(residue)
        self.gen_level.append(level)

    def _extend_orbit(self, level: int) -> None:
        """Close the orbit of base[level] under the level's generators.

        Existing transversal entries are kept as-is: replacing them would
        invalidate Schreier generators already processed against them. A new
        entry u = g . rep makes the Schreier generator of (pt, g) the
        identity, so that pair is marked processed without a sift.
        """
        tr = self.transversals[level]
        processed = self._processed[level]
        gens = [
            (gid, g)
            for gid, (g, lv) in enumerate(zip(self.strong_gens, self.gen_level))
            if lv >= level
        ]
        queue = list(tr.keys())
        head = 0
        while head < len(queue):
            pt = queue[head]
            head += 1
            rep = tr[pt][0]
            for gid, g in gens:
                img = int(g[pt])
                if img not in tr:
                    u = g[rep]
                    tr[img] = (u, _inverse(u))
                    processed.add((pt, gid))
                    queue.append(img)

    def _complete(self, order: int | None = None) -> None:
        """Process Schreier generators until every level is stable, or until
        the transversal lengths multiply to order.

        Walks from the deepest level upward; a residue surfacing at a deeper
        level restarts the walk there. Processed (point, generator) pairs are
        memoized, so revisiting a level only pays for new pairs. Transversals
        lie in basic orbits, which multiply to |G| only on a complete base, so
        at |G| every pair left unprocessed sifts to the identity (Seress,
        Permutation Group Algorithms, 2003, ch. 4).
        """
        level = len(self.base) - 1
        while level >= 0:
            self._extend_orbit(level)
            if order is not None and self.order() >= order:
                return
            tr = self.transversals[level]
            processed = self._processed[level]
            gens = list(enumerate(self.strong_gens))
            restart = None
            for pt, (rep, _) in list(tr.items()):
                for gid, g in gens:
                    if self.gen_level[gid] < level:
                        continue
                    key = (pt, gid)
                    if key in processed:
                        continue
                    processed.add(key)
                    # the orbit is closed under the level's generators
                    target_inv = tr[int(g[pt])][1]
                    residue, lvl = self.sift(target_inv[g[rep]], level + 1)
                    if residue.tobytes() != self._identity_bytes:
                        self._insert(residue, lvl)
                        restart = lvl
                        break
                if restart is not None:
                    break
            if restart is not None:
                level = restart
            else:
                level -= 1
        if order is not None:
            raise ArithmeticError(f"the group has order {self.order()}, not {order}")


def build_chain(
    generators: Iterable[Permutation], orders: Sequence[int | None] = ()
) -> StabilizerChain:
    """orders[i], if given, is the order of the group of generators[: i + 1]."""
    gens = list(generators)
    if not gens:
        return StabilizerChain(0)
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise NotAPermutationError("generators must share one degree")
    chain = StabilizerChain(degree)
    for g, order in zip(gens, orders or [None] * len(gens), strict=True):
        chain.add_generator(g.images, order)
    return chain


def group_order(generators: Iterable[Permutation], orders: Sequence[int | None] = ()) -> int:
    """Exact order of the group generated by the permutations; orders as in
    build_chain.

    The empty generating set yields the trivial group of order 1.
    """
    return build_chain(generators, orders).order()
