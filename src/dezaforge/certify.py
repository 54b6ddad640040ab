"""Parameter certificates by exact counting.

Every certificate is an audited claim record: it stores the parameters that
were verified, the witnesses for any failure, and a pass flag. All counting
is exhaustive; nothing is sampled and nothing is floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .graphcore import Graph, _component_labels, exact_matmul


class InvalidPairError(ValueError):
    """common_neighbors was asked about a vertex paired with itself."""


def common_neighbors(g: Graph, u: int, w: int) -> int:
    """Size of the intersection of the neighbourhoods of two distinct vertices."""
    if u == w:
        raise InvalidPairError("common neighbours need two distinct vertices")
    return int((g.adjacency[u] & g.adjacency[w]).sum())


def diameter(g: Graph) -> int | None:
    """Largest eccentricity, or None when the graph is disconnected.

    Breadth-first search from every vertex at once: row s of the frontier
    holds the vertices first reached from s at the current distance. The
    first two levels are read from A and A^2 > 0 (g.square()); past them,
    one boolean product with A advances every row by one level.
    """
    if g.v == 0:
        return None
    reached = np.eye(g.v, dtype=bool)
    frontier = reached
    dist = 0
    while not reached.all():
        if dist < 2:
            # I A = A and A A = A^2: both are already held by g
            step = g.square() > 0 if dist else g.adjacency
        else:
            step = exact_matmul(frontier, g.adjacency) > 0
        frontier = step & ~reached
        if not frontier.any():
            return None
        reached = reached | frontier
        dist += 1
    return dist


def triangle_count(g: Graph) -> int:
    """Number of triangles, as trace(A^3) / 6 in exact integers."""
    # trace(A^3) = sum of A o A^2 <= v^3; numpy sums small unsigned ints in uint64
    cube_trace = int(g.square()[g.adjacency].sum())
    if cube_trace % 6:
        raise ArithmeticError(f"trace(A^3) = {cube_trace} is not divisible by 6")
    return cube_trace // 6


@dataclass
class SrgCertificate:
    """Verified strongly-regular parameter claim, or its refutation."""

    v: int
    k: int | None = None
    lam: int | None = None
    mu: int | None = None
    r: int | None = None
    s: int | None = None
    multiplicity_r: int | None = None
    multiplicity_s: int | None = None
    passed: bool = False
    failure: dict[str, Any] | None = None

    @property
    def parameters(self) -> tuple[int, int, int, int] | None:
        if not self.passed:
            return None
        return (self.v, self.k, self.lam, self.mu)

    def to_json(self) -> dict[str, Any]:
        return {
            "type": "srg",
            "parameters": {
                "v": self.v,
                "k": self.k,
                "lambda": self.lam,
                "mu": self.mu,
                "r": self.r,
                "s": self.s,
                "multiplicity_r": self.multiplicity_r,
                "multiplicity_s": self.multiplicity_s,
            },
            "witnesses": self.failure or {},
            "pass": self.passed,
        }


def certify_srg(g: Graph) -> SrgCertificate:
    """Check strong regularity via the exact matrix identity.

    Verifies g.square() = k I + lambda A + mu (J - I - A) entry by entry,
    which is exhaustive common-neighbour counting. Requires 0 < k < v-1 so
    that both lambda and mu are witnessed.
    """
    cert = SrgCertificate(v=g.v)
    if g.v < 2:
        cert.failure = {"reason": "too few vertices"}
        return cert
    degs = g.adjacency.sum(axis=1)
    if not (degs == degs[0]).all():
        lo = int(np.argmin(degs))
        hi = int(np.argmax(degs))
        cert.failure = {
            "reason": "not regular",
            "witness": {
                "vertex_low": lo,
                "degree_low": int(degs[lo]),
                "vertex_high": hi,
                "degree_high": int(degs[hi]),
            },
        }
        return cert
    k = int(degs[0])
    cert.k = k
    if not 0 < k < g.v - 1:
        cert.failure = {"reason": f"degree {k} is degenerate (complete or empty)"}
        return cert
    n2 = g.square()
    off = ~np.eye(g.v, dtype=bool)
    adj = g.adjacency
    lam_vals = _distinct_counts(n2[adj])
    mu_vals = _distinct_counts(n2[off & ~adj])
    if len(lam_vals) != 1 or len(mu_vals) != 1:
        witnesses = {}
        if len(lam_vals) != 1:
            pairs = _pairs_with_values(n2, adj, lam_vals[:2])
            witnesses["adjacent"] = pairs
        if len(mu_vals) != 1:
            pairs = _pairs_with_values(n2, off & ~adj, mu_vals[:2])
            witnesses["nonadjacent"] = pairs
        cert.failure = {"reason": "common-neighbour count not constant", **witnesses}
        return cert
    lam, mu = int(lam_vals[0]), int(mu_vals[0])
    cert.lam, cert.mu = lam, mu
    # the defining identity, checked exactly: lambda on edges, mu off them
    expected = np.where(adj, n2.dtype.type(lam), n2.dtype.type(mu))
    np.fill_diagonal(expected, k)
    if not (n2 == expected).all():
        cert.failure = {"reason": "matrix identity failed"}
        return cert
    if k * (k - lam - 1) != (g.v - k - 1) * mu:
        cert.failure = {
            "reason": "feasibility identity k(k-lambda-1) = (v-k-1)mu failed"
        }
        return cert
    cert.passed = True
    _fill_srg_spectrum(cert)
    return cert


def _distinct_counts(counts: np.ndarray) -> np.ndarray:
    """The distinct common-neighbour counts, ascending.

    Entries of A^2 lie in [0, v], so a bincount is exact and cheaper than a sort.
    """
    return np.flatnonzero(np.bincount(counts))


def _pairs_with_values(n2: np.ndarray, mask: np.ndarray, values) -> list[dict[str, int]]:
    out = []
    for val in values:
        us, ws = np.nonzero(mask & (n2 == val))
        out.append({"u": int(us[0]), "w": int(ws[0]), "common": int(val)})
    return out


def _fill_srg_spectrum(cert: SrgCertificate) -> None:
    """Fill r, s and multiplicities when they are integers.

    The non-trivial eigenvalues are the roots of x^2 + (mu-lambda)x +
    (mu-k) = 0; conference-graph parameter sets have irrational roots and
    the fields stay None.
    """
    v, k, lam, mu = cert.v, cert.k, cert.lam, cert.mu
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = math.isqrt(disc)
    if root * root != disc:
        return
    if (lam - mu + root) % 2:
        return
    r = (lam - mu + root) // 2
    s = (lam - mu - root) // 2
    # multiplicities from the trace conditions m_r + m_s = v-1, k + m_r r + m_s s = 0
    num_r = -(k + (v - 1) * s)
    if num_r % (r - s):
        return
    m_r = num_r // (r - s)
    m_s = v - 1 - m_r
    cert.r, cert.s = r, s
    cert.multiplicity_r, cert.multiplicity_s = m_r, m_s


@dataclass
class DezaCertificate:
    """Verified Deza parameter claim with strictness data."""

    v: int
    k: int | None = None
    b: int | None = None
    a: int | None = None
    beta_min: int | None = None
    beta_max: int | None = None
    diameter: int | None = None
    strict: bool = False
    passed: bool = False
    failure: dict[str, Any] | None = None

    @property
    def parameters(self) -> tuple[int, int, int, int] | None:
        if not self.passed:
            return None
        return (self.v, self.k, self.b, self.a)

    def to_json(self) -> dict[str, Any]:
        return {
            "type": "deza",
            "parameters": {
                "v": self.v,
                "k": self.k,
                "b": self.b,
                "a": self.a,
                "beta_min": self.beta_min,
                "beta_max": self.beta_max,
                "diameter": self.diameter,
                "strict": self.strict,
            },
            "witnesses": self.failure or {},
            "pass": self.passed,
        }


def certify_deza(g: Graph) -> DezaCertificate:
    """Check the Deza property: all distinct pairs share a or b neighbours.

    Collects the distinct common-neighbour counts of g.square(). On success
    the certificate also reports, from the same A^2, the per-vertex count of
    b-partners (beta range), the diameter, and strictness (diameter 2 and
    not strongly regular). An SRG passes as a Deza graph with strict = False.
    """
    cert = DezaCertificate(v=g.v)
    if g.v < 2:
        cert.failure = {"reason": "too few vertices"}
        return cert
    degs = g.adjacency.sum(axis=1)
    if not (degs == degs[0]).all():
        cert.failure = {"reason": "not regular"}
        return cert
    cert.k = int(degs[0])
    n2 = g.square()
    off = ~np.eye(g.v, dtype=bool)
    values = _distinct_counts(n2[off])
    if len(values) > 2:
        cert.failure = {
            "reason": f"{len(values)} distinct common-neighbour counts",
            "witnesses": _pairs_with_values(n2, off, values[:3]),
        }
        return cert
    if len(values) == 2:
        a_val, b_val = int(values[0]), int(values[1])
    else:
        a_val = b_val = int(values[0])
    cert.a, cert.b = a_val, b_val
    beta = (off & (n2 == b_val)).sum(axis=1)
    cert.beta_min = int(beta.min())
    cert.beta_max = int(beta.max())
    cert.diameter = diameter(g)
    cert.passed = True
    cert.strict = cert.diameter == 2 and not certify_srg(g).passed
    return cert


@dataclass
class DdgCertificate:
    """Verified divisible-design partition of a two-valued regular graph."""

    v: int
    m: int | None = None
    n: int | None = None
    lambda1: int | None = None
    lambda2: int | None = None
    partition: list[list[int]] = field(default_factory=list)
    passed: bool = False
    failure: dict[str, Any] | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "type": "ddg",
            "parameters": {
                "v": self.v,
                "m": self.m,
                "n": self.n,
                "lambda1": self.lambda1,
                "lambda2": self.lambda2,
            },
            "partition": self.partition,
            "witnesses": self.failure or {},
            "pass": self.passed,
        }


def certify_ddg(g: Graph) -> DdgCertificate:
    """Search for a divisible design partition of the vertex set.

    A divisible design graph splits into m classes of n vertices such that
    same-class pairs have lambda1 common neighbours and cross-class pairs
    lambda2. The candidate within-class relation is 'common neighbours = b';
    if that fails, the symmetric assignment with the value a is tried.
    """
    cert = DdgCertificate(v=g.v)
    deza = certify_deza(g)
    if not deza.passed:
        cert.failure = {
            "reason": "not a regular two-valued graph",
            "deza_failure": deza.failure,
        }
        return cert
    for inside in (deza.b, deza.a):
        outside = deza.a if inside == deza.b else deza.b
        result = _try_ddg_partition(g.v, g.square(), inside, outside)
        if isinstance(result, list):
            cert.m = len(result)
            cert.n = len(result[0])
            cert.lambda1 = inside
            cert.lambda2 = outside
            cert.partition = result
            cert.passed = True
            return cert
        first_failure = result
        if inside == deza.a:
            cert.failure = first_failure
    if cert.failure is None:
        cert.failure = {"reason": "no divisible partition found"}
    return cert


def _try_ddg_partition(
    v: int, n2: np.ndarray, inside: int, outside: int
) -> list[list[int]] | dict[str, Any]:
    """Classes = components of the inside-relation; validate all pair counts."""
    relation = n2 == inside
    np.fill_diagonal(relation, False)
    labels = _component_labels(v, *np.nonzero(relation))
    # labels are class minima, so a stable sort lists the classes in order
    # of their smallest member, each in increasing order
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    classes = [c.tolist() for c in np.split(order, starts)]
    sizes = {len(c) for c in classes}
    if len(sizes) != 1:
        return {"reason": "relation classes have unequal sizes",
                "sizes": sorted(sizes)}
    size = sizes.pop()
    if size == 1 and inside != outside:
        return {"reason": "within-class relation is empty"}
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(v, dtype=bool)
    bad_inside = off & same & (n2 != inside)
    if bad_inside.any():
        u, w = map(int, np.argwhere(bad_inside)[0])
        return {"reason": "within-class pair has the wrong count",
                "witness": {"u": u, "w": w, "common": int(n2[u, w])}}
    bad_outside = ~same & (n2 != outside)
    if bad_outside.any():
        u, w = map(int, np.argwhere(bad_outside)[0])
        return {"reason": "cross-class pair has the wrong count",
                "witness": {"u": u, "w": w, "common": int(n2[u, w])}}
    return classes
