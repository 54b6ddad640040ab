"""Vertex permutations and exact permutation-group order.

Permutations are immutable image arrays over [0, v). Group order is computed
with a deterministic Schreier-Sims stabilizer chain; orders are plain Python
integers, so they never overflow.
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

    def __call__(self, i: int) -> int:
        return int(self.images[i])

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


def identity_perm(degree: int) -> Permutation:
    return Permutation(range(degree))


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """Apply sigma first, then tau: result(i) = tau(sigma(i))."""
    if sigma.degree != tau.degree:
        raise NotAPermutationError("degree mismatch in compose")
    return Permutation(tau.images[sigma.images])


def inverse(sigma: Permutation) -> Permutation:
    return Permutation(_inverse(sigma.images))


def is_involution(sigma: Permutation) -> bool:
    """True iff sigma is not the identity and sigma squared is."""
    imgs = sigma.images
    return not sigma.is_identity() and bool(
        (imgs[imgs] == np.arange(sigma.degree)).all()
    )


def perm_from_matrix(m: gf3.GF3Matrix) -> Permutation:
    """Permutation of the 3^n vertex indices realizing v -> v*M."""
    if m.rows != m.cols:
        raise NotAPermutationError("only square matrices act on the vertex set")
    if gf3.rank(m) != m.rows:
        raise NotAPermutationError("singular matrix does not permute the vectors")
    vv = gf3.all_vectors(m.rows)
    return Permutation(gf3.indices_of(vv @ m.array % 3))


def translation_perm(t: Sequence[int]) -> Permutation:
    """Permutation v -> v + t on the 3^n vertex indices."""
    vec = np.array(gf3._check_vector(t), dtype=np.int64)
    vv = gf3.all_vectors(len(vec))
    return Permutation(gf3.indices_of((vv + vec) % 3))


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
    order. A fixed base prefix may be supplied up front; gens_at_level(d)
    then generates exactly the pointwise stabilizer of those prefix points,
    which the automorphism search relies on for orbit pruning. Transversals
    only ever grow (existing representatives are never replaced), which
    keeps already-processed Schreier generators valid.
    """

    def __init__(self, degree: int, base: Sequence[int] = ()) -> None:
        self.degree = degree
        self.identity = np.arange(degree)
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

    def gens_at_level(self, level: int) -> list[np.ndarray]:
        """Strong generators of the pointwise stabilizer of base[:level]."""
        return [
            g for g, lv in zip(self.strong_gens, self.gen_level) if lv >= level
        ]

    def sift(self, g: Sequence[int], start: int = 0) -> tuple[np.ndarray, int]:
        """Divide g through the transversals; return (residue, drop level)."""
        g = np.asarray(g, dtype=np.intp)
        for lvl in range(start, len(self.base)):
            entry = self.transversals[lvl].get(int(g[self.base[lvl]]))
            if entry is None:
                return g, lvl
            g = entry[1][g]
        return g, len(self.base)

    def contains(self, g: Sequence[int]) -> bool:
        residue, _ = self.sift(g)
        return np.array_equal(residue, self.identity)

    # -- construction -------------------------------------------------------

    def add_generator(self, g: Sequence[int]) -> bool:
        """Sift g and, if new, extend the chain. Returns True if the group grew."""
        residue, level = self.sift(g)
        if np.array_equal(residue, self.identity):
            return False
        self._insert(residue, level)
        self._complete()
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
        invalidate Schreier generators already processed against them.
        """
        tr = self.transversals[level]
        gens = self.gens_at_level(level)
        queue = list(tr.keys())
        head = 0
        while head < len(queue):
            pt = queue[head]
            head += 1
            rep = tr[pt][0]
            for g in gens:
                img = int(g[pt])
                if img not in tr:
                    u = g[rep]
                    tr[img] = (u, _inverse(u))
                    queue.append(img)

    def _complete(self) -> None:
        """Process Schreier generators until every level is stable.

        Walks from the deepest level upward; a residue surfacing at a deeper
        level restarts the walk there. Processed (point, generator) pairs are
        memoized, so revisiting a level only pays for new pairs.
        """
        level = len(self.base) - 1
        while level >= 0:
            self._extend_orbit(level)
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
                    if not np.array_equal(residue, self.identity):
                        self._insert(residue, lvl)
                        restart = lvl
                        break
                if restart is not None:
                    break
            if restart is not None:
                level = restart
            else:
                level -= 1


def build_chain(generators: Iterable[Permutation]) -> StabilizerChain:
    gens = list(generators)
    if not gens:
        return StabilizerChain(0)
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise NotAPermutationError("generators must share one degree")
    chain = StabilizerChain(degree)
    for g in gens:
        chain.add_generator(g.images)
    return chain


def group_order(generators: Iterable[Permutation]) -> int:
    """Exact order of the group generated by the permutations.

    The empty generating set yields the trivial group of order 1.
    """
    return build_chain(generators).order()
