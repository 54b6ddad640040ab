"""Exact integer spectrum certification.

A claimed spectrum is proved in two independent stages, neither of which
touches floating point:

  * annihilation: the product of (A - theta I) over the claimed eigenvalues
    is the zero matrix, so the spectrum is contained in the claim. The
    factors are paired into quadratics A^2 - (x + y) A + xy I read from the
    graph's memoised A^2, so d eigenvalues cost ceil(d/2) - 1 products;
  * moments: the claimed multiplicities are the unique solution of the
    Vandermonde system built from exact power traces, so containment is
    sharpened to equality.

Discovery finds the candidate eigenvalues as integer roots of local minimal
polynomials, computed by fraction-free elimination of Krylov vectors in
Python integers. Every matrix product goes through graphcore.exact_matmul,
which proves a bound on its partial sums in Python integers and picks
float32 or float64 BLAS, int64 or Python-integer object arrays accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from .graphcore import _INT64_MAX, Graph, exact_matmul


class InconsistentClaimError(ValueError):
    """The moment system has no nonnegative-integer solution for the claim."""


@dataclass(frozen=True)
class SpectrumClaim:
    """Eigenvalue/multiplicity pairs; eigenvalues distinct, counts positive."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        thetas = [t for t, _ in self.pairs]
        if len(set(thetas)) != len(thetas):
            raise InconsistentClaimError("eigenvalues must be pairwise distinct")
        if any(m <= 0 for _, m in self.pairs):
            raise InconsistentClaimError("multiplicities must be positive")

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, int]]) -> "SpectrumClaim":
        return cls(tuple((int(t), int(m)) for t, m in pairs))

    @classmethod
    def parse(cls, text: str) -> "SpectrumClaim":
        """Parse 'theta:mult,theta:mult,...' as used by the command line."""
        pairs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            theta, _, mult = chunk.partition(":")
            pairs.append((int(theta), int(mult)))
        if not pairs:
            raise InconsistentClaimError(f"no eigenvalue pairs in {text!r}")
        return cls.from_pairs(pairs)

    @property
    def eigenvalues(self) -> list[int]:
        return [t for t, _ in self.pairs]

    @property
    def multiplicities(self) -> list[int]:
        return [m for _, m in self.pairs]

    def total(self) -> int:
        return sum(self.multiplicities)


def _annihilator(g: Graph, thetas: Sequence[int]) -> np.ndarray:
    """The exact product of (A - theta I) over thetas.

    Factors are taken in pairs, each read from A^2 = g.square() with no
    product: (A - x I)(A - y I) = A^2 - (x + y) A + xy I. An odd last theta
    is a factor A - theta I of its own. The factors commute, so d thetas
    cost ceil(d/2) - 1 products, and each factor is built just before it is
    multiplied. A factor is held in Python integers when the bound
    |x + y| + |xy| + v on its entries (|theta| for a single one) does not
    fit int64.
    """
    v = g.v
    product = None
    for index in range(0, len(thetas), 2):
        pair = thetas[index : index + 2]
        if len(pair) == 2:
            total, prod = pair[0] + pair[1], pair[0] * pair[1]
            fits = abs(total) + abs(prod) + v <= _INT64_MAX
            factor = g.square().astype(np.int64 if fits else object)
            factor[g.adjacency] -= total
            factor.flat[:: v + 1] += prod
        else:
            factor = g.int_adjacency()
            if abs(pair[0]) > _INT64_MAX:
                factor = factor.astype(object)
            factor.flat[:: v + 1] = -pair[0]
        product = factor if product is None else exact_matmul(product, factor)
        del factor  # so that no more than two v x v operands are ever live
    return np.eye(v, dtype=np.int64) if product is None else product


def annihilation_check(g: Graph, thetas: Sequence[int]) -> bool:
    """True iff the product of (A - theta I) over thetas is exactly zero.

    A true result proves that every eigenvalue of A lies in thetas. Factors
    are paired in the order given (see _annihilator).
    """
    ts = [int(t) for t in thetas]
    if len(set(ts)) != len(ts):
        raise InconsistentClaimError("eigenvalues must be pairwise distinct")
    return not np.any(_annihilator(g, ts))


def _entry_dot(x: np.ndarray, y: np.ndarray) -> int:
    """Sum of the entrywise product x o y, exactly."""
    return int(exact_matmul(x.reshape(1, -1), y.reshape(-1, 1))[0, 0])


def power_traces(g: Graph, t: int) -> list[int]:
    """Exact traces of A^0 .. A^(t-1).

    A is symmetric with a zero diagonal, so the first five come from A and
    A^2 = g.square() alone: v, 0, sum A, sum A o A^2 and sum A^2 o A^2.
    Beyond those, trace A^j = sum A^p o A^q with p = j // 2 and q = j - p,
    one product for every second j.
    """
    if t < 1:
        raise ValueError("need at least one moment")
    adj = g.adjacency
    traces = [g.v, 0, int(adj.sum())][:t]
    if t <= 3:
        return traces
    low = high = g.square()
    traces.append(_entry_dot(adj, high))
    for j in range(4, t):
        if j % 2:
            high = exact_matmul(high, adj)
        else:
            low = high
        traces.append(_entry_dot(low, high))
    return traces


def multiplicities_from_moments(
    thetas: Sequence[int], traces: Sequence[int], v: int
) -> list[int]:
    """Solve sum_i m_i theta_i^j = traces[j] exactly over the rationals.

    The first len(thetas) moments pin the solution in the Lagrange basis:
    if c_ij are the coefficients of q_i(x) = prod_{k != i} (x - theta_k),
    then sum_j c_ij traces[j] = m_i q_i(theta_i), and distinct nodes make
    q_i(theta_i) nonzero. Extra moments are checked for consistency. Raises
    InconsistentClaimError unless the solution is a nonnegative integer
    vector summing to v.
    """
    ts = [int(t) for t in thetas]
    n = len(ts)
    if len(set(ts)) != n:
        raise InconsistentClaimError("duplicate eigenvalues: singular system")
    if len(traces) < n:
        raise InconsistentClaimError("need at least as many moments as eigenvalues")
    mults = []
    for i, theta in enumerate(ts):
        others = ts[:i] + ts[i + 1 :]
        coeffs = [1]  # q_i, low to high
        for other in others:
            coeffs = [up - other * c for c, up in zip(coeffs + [0], [0] + coeffs)]
        num = sum(c * int(t) for c, t in zip(coeffs, traces))
        m = Fraction(num, math.prod(theta - other for other in others))
        if m.denominator != 1 or m < 0:
            raise InconsistentClaimError(
                f"multiplicity of eigenvalue {theta} solves to {m}, "
                "not a nonnegative integer"
            )
        mults.append(int(m))
    if sum(mults) != v:
        raise InconsistentClaimError(
            f"multiplicities sum to {sum(mults)}, not the vertex count {v}"
        )
    for j in range(n, len(traces)):
        if sum(m * t**j for m, t in zip(mults, ts)) != int(traces[j]):
            raise InconsistentClaimError(f"moment {j} is inconsistent")
    return mults


@dataclass
class SpectrumCertificate:
    """Outcome of the two-stage exact spectrum check."""

    eigenvalues: list[int]
    multiplicities: list[int]
    annihilation: bool
    moments: list[int]
    passed: bool
    failure_stage: str | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        out = {
            "eigenvalues": self.eigenvalues,
            "multiplicities": self.multiplicities,
            "annihilation": self.annihilation,
            "moments": self.moments,
            "pass": self.passed,
        }
        if self.failure_stage:
            out["failure_stage"] = self.failure_stage
        if self.detail:
            out["detail"] = self.detail
        return out


def certify_spectrum(g: Graph, claim: SpectrumClaim) -> SpectrumCertificate:
    """Prove or refute that the spectrum of g equals the claim exactly.

    Passing requires annihilation on the claimed eigenvalues and the moment
    solution reproducing the claimed multiplicities; together these pin the
    spectrum completely. For regular graphs the second spectral moment is
    additionally compared against v*k independently of the solver.
    """
    stage, annihilated, moments, detail = _first_failure(g, claim)
    return SpectrumCertificate(
        eigenvalues=claim.eigenvalues,
        multiplicities=claim.multiplicities,
        annihilation=annihilated,
        moments=moments,
        passed=stage is None,
        failure_stage=stage,
        detail=detail,
    )


def _first_failure(
    g: Graph, claim: SpectrumClaim
) -> tuple[str | None, bool, list[int], dict[str, Any]]:
    """(failing stage or None, annihilation, moments, detail) for the claim."""
    thetas = claim.eigenvalues
    if claim.total() != g.v:
        reason = f"multiplicities sum to {claim.total()}, v = {g.v}"
        return "claim", False, [], {"reason": reason}
    annihilated = annihilation_check(g, thetas)
    moments = power_traces(g, len(thetas))
    if not annihilated:
        return "annihilation", False, moments, {}
    try:
        solved = multiplicities_from_moments(thetas, moments, g.v)
    except InconsistentClaimError as exc:
        return "moments", True, moments, {"reason": str(exc)}
    if solved != claim.multiplicities:
        return "moments", True, moments, {"solved_multiplicities": solved}
    if g.is_regular():
        expected = g.v * g.degree()
        second = sum(m * t * t for t, m in claim.pairs)
        if second != expected:
            detail = {"second_moment": second, "expected": expected}
            return "regularity-moment", True, moments, detail
    return None, True, moments, {}


def discover_spectrum(g: Graph) -> SpectrumClaim:
    """Compute the exact integer spectrum of g, or fail loudly.

    Collects the integer roots of local minimal polynomials, one Krylov seed
    e_i at a time, until the collected set annihilates A; then solves the
    moment system for the multiplicities. After a failed annihilation the
    next seed is a column the product did not annihilate, whose local
    polynomial therefore has a root outside the set. The minimal polynomial
    of a symmetric matrix has simple roots, and so does every local one,
    which divides it: a local polynomial with fewer integer roots than its
    degree proves that the spectrum is not an integer multiset. Raises
    InconsistentClaimError then; such graphs need an irrational-capable
    method, which this tool does not carry.
    """
    if g.v == 0:
        raise InconsistentClaimError("empty graph has no spectrum")
    a = g.int_adjacency()
    max_degree = int(g.adjacency.sum(axis=1).max())
    candidates: set[int] = set()
    seed = 0
    while True:
        poly = _local_minimal_polynomial(a, seed)
        roots = _integer_roots(poly, max_degree)
        if len(roots) < len(poly) - 1:
            raise InconsistentClaimError(
                f"the local minimal polynomial at vertex {seed} has "
                f"{len(poly) - 1 - len(roots)} non-integer roots; "
                "the spectrum is not integral"
            )
        candidates.update(roots)
        thetas = sorted(candidates, reverse=True)
        residue = _annihilator(g, thetas)
        missed = np.flatnonzero(residue.any(axis=0))
        if missed.size == 0:
            break
        seed = int(missed[0])
    moments = power_traces(g, len(thetas))
    mults = multiplicities_from_moments(thetas, moments, g.v)
    return SpectrumClaim.from_pairs(list(zip(thetas, mults)))


def _local_minimal_polynomial(a: np.ndarray, seed: int) -> list[Fraction]:
    """Monic polynomial (coefficients low to high) annihilating A at e_seed.

    Reduces the Krylov vectors e, Ae, A^2 e, ... against each other by
    fraction-free elimination (Bareiss, Math. Comp. 22 (1968)): a vector and
    its combination of powers are cross-multiplied with a reduced one, then
    divided together by the gcd of their entries, all in Python integers.
    The first dependence gives the polynomial, made monic once at the end;
    the monic local minimal polynomial is unique.
    """
    v = a.shape[0]
    basis: list[tuple[int, np.ndarray, np.ndarray]] = []
    vec = np.zeros(v, dtype=np.int64)
    vec[seed] = 1
    for power in range(v + 1):
        combo = np.zeros(power + 1, dtype=object)
        combo[power] = 1
        residual = vec.astype(object)
        for lead, reduced, rc in basis:
            r, p = residual[lead], reduced[lead]
            if r == 0:
                continue
            residual = p * residual - r * reduced
            combo *= p
            combo[: len(rc)] -= r * rc
        nonzero = np.flatnonzero(residual)
        if nonzero.size == 0:
            return [Fraction(c, combo[-1]) for c in combo]
        common = math.gcd(*residual[nonzero], *combo)
        basis.append((int(nonzero[0]), residual // common, combo // common))
        vec = exact_matmul(a, vec)
    raise AssertionError("Krylov iteration exceeded the space dimension")


def _integer_roots(poly: list[Fraction], bound: int) -> list[int]:
    """The integers t in [-bound, bound], ascending, at which poly is zero.

    Callers pass the graph's maximum degree, which bounds its spectral
    radius. Denominators are cleared once; Horner's rule runs in Python ints.
    """
    denom = math.lcm(*(c.denominator for c in poly))
    coeffs = [int(c * denom) for c in reversed(poly)]
    roots = []
    for cand in range(-bound, bound + 1):
        value = 0
        for c in coeffs:
            value = value * cand + c
        if value == 0:
            roots.append(cand)
    return roots
