"""A plain Schreier-Sims stabilizer chain: the tests' oracle for group order.

The program reads |Aut| from its search tree and the seed orders from the
affine structure, so neither uses this. It has no base prefix, no order at
which to stop and no generator levels: a level's generators are the strong
generators that fix the base points before it, and every Schreier
generator of a level is sifted until all levels are stable (Holt, Eick &
O'Brien, Handbook of Computational Group Theory, 2005, ch. 4.4).

Group elements are np.intp index arrays; q[p] applies p first, then q.
"""

from math import prod

import numpy as np

from dezaforge.permgroup import NotAPermutationError


def inverse(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(p.size)
    return out


class Chain:
    """Base, strong generators and transversals of a permutation group."""

    def __init__(self, gens: list[np.ndarray], degree: int) -> None:
        self.identity = np.arange(degree, dtype=np.intp)
        self.base: list[int] = []
        self.strong: list[np.ndarray] = []
        # transversals[i]: point -> (u, u^-1) with u[base[i]] = point
        self.transversals: list[dict[int, tuple[np.ndarray, np.ndarray]]] = []
        for g in gens:
            if not np.array_equal(g, self.identity):
                # one that fixes every base point so far extends the base
                fixes = all(g[b] == b for b in self.base)
                self._add(g, len(self.base) if fixes else 0)
        level = len(self.base) - 1
        while level >= 0:
            grown = self._stabilize(level)
            level = level - 1 if grown is None else grown

    def order(self) -> int:
        return prod(len(tr) for tr in self.transversals)

    def sift(self, g: np.ndarray, start: int = 0) -> tuple[np.ndarray, int]:
        """Divide g through the transversals; return (residue, drop level)."""
        for level in range(start, len(self.base)):
            entry = self.transversals[level].get(int(g[self.base[level]]))
            if entry is None:
                return g, level
            g = entry[1][g]
        return g, len(self.base)

    def contains(self, g) -> bool:
        residue, _ = self.sift(np.asarray(g, dtype=np.intp))
        return bool((residue == np.arange(residue.size)).all())

    def _add(self, g: np.ndarray, level: int) -> None:
        """A strong generator that fixes base[:level], extending the base by
        its first moved point when level is past the last base point."""
        if level == len(self.base):
            self.base.append(int(np.flatnonzero(g != self.identity)[0]))
            self.transversals.append({})
        self.strong.append(g)

    def _stabilize(self, level: int) -> int | None:
        """Rebuild level's transversal and sift its Schreier generators; the
        drop level of the first that does not sift to the identity, or None."""
        gens = [g for g in self.strong if all(g[b] == b for b in self.base[:level])]
        root = self.base[level]
        tr = {root: (self.identity, self.identity)}
        queue = [root]
        for pt in queue:
            for g in gens:
                img = int(g[pt])
                if img not in tr:
                    u = g[tr[pt][0]]
                    tr[img] = (u, inverse(u))
                    queue.append(img)
        self.transversals[level] = tr
        for u, _ in tr.values():
            for g in gens:
                residue, drop = self.sift(tr[int(g[u[root]])][1][g[u]], level + 1)
                if not np.array_equal(residue, self.identity):
                    self._add(residue, drop)
                    return drop
        return None


def build_chain(generators) -> Chain:
    """The chain of the group that the permutations generate."""
    gens = [np.asarray(getattr(g, "images", g), dtype=np.intp) for g in generators]
    if len({g.size for g in gens}) > 1:
        raise NotAPermutationError("generators must share one degree")
    return Chain(gens, gens[0].size if gens else 0)


def group_order(generators) -> int:
    """Exact order of the group generated by the permutations; 1 for none."""
    return build_chain(generators).order()
