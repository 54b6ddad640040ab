"""Exact integer spectrum certification.

A claimed spectrum is proved in two independent stages, neither of which
touches floating point:

  * annihilation: the product of (A - theta I) over the claimed eigenvalues
    is the zero matrix, so the spectrum is contained in the claim;
  * moments: the claimed multiplicities are the unique solution of the
    Vandermonde system built from exact power traces, so containment is
    sharpened to equality.

Every matrix product goes through graphcore.exact_matmul, which proves a
bound on its partial sums in Python integers and picks float64 BLAS, int64
or Python-integer object arrays accordingly.
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

    def to_json(self) -> dict[str, Any]:
        return {
            "eigenvalues": self.eigenvalues,
            "multiplicities": self.multiplicities,
        }


def _annihilator(a: np.ndarray, thetas: Sequence[int]) -> np.ndarray:
    """The exact product of (A - theta I) over thetas, left to right.

    a is the int64 adjacency matrix; its zero diagonal makes each factor a
    copy of a with -theta on the diagonal, held in Python integers when
    theta does not fit int64.
    """
    product = np.eye(a.shape[0], dtype=np.int64)
    for index, theta in enumerate(thetas):
        factor = a.copy() if abs(theta) <= _INT64_MAX else a.astype(object)
        np.fill_diagonal(factor, -theta)
        product = factor if index == 0 else exact_matmul(product, factor)
    return product


def annihilation_check(g: Graph, thetas: Sequence[int]) -> bool:
    """True iff the product of (A - theta I) over thetas is exactly zero.

    A true result proves that every eigenvalue of A lies in thetas. Factors
    are multiplied left to right in the order given.
    """
    ts = [int(t) for t in thetas]
    if len(set(ts)) != len(ts):
        raise InconsistentClaimError("eigenvalues must be pairwise distinct")
    return not np.any(_annihilator(g.int_adjacency(), ts))


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

    The first len(thetas) moments pin the solution (the Vandermonde matrix
    of distinct nodes is invertible); any extra moments are checked for
    consistency. Raises InconsistentClaimError unless the solution is a
    nonnegative integer vector summing to v.
    """
    ts = [int(t) for t in thetas]
    n = len(ts)
    if len(set(ts)) != n:
        raise InconsistentClaimError("duplicate eigenvalues: singular system")
    if len(traces) < n:
        raise InconsistentClaimError("need at least as many moments as eigenvalues")
    rows = [
        [Fraction(t**j) for t in ts] + [Fraction(int(traces[j]))] for j in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise InconsistentClaimError("singular moment system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    solution = [rows[r][n] for r in range(n)]
    mults = []
    for theta, m in zip(ts, solution):
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
    max_degree = max(int(d) for d in g.degree_sequence())
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
        residue = _annihilator(a, thetas)
        missed = np.flatnonzero(residue.any(axis=0))
        if missed.size == 0:
            break
        seed = int(missed[0])
    moments = power_traces(g, len(thetas))
    mults = multiplicities_from_moments(thetas, moments, g.v)
    return SpectrumClaim.from_pairs(list(zip(thetas, mults)))


def _local_minimal_polynomial(a: np.ndarray, seed: int) -> list[Fraction]:
    """Monic polynomial (coefficients low to high) annihilating A at e_seed.

    Reduces the Krylov vectors e, Ae, A^2 e, ... against each other with
    exact rational elimination; the first dependence gives the polynomial.
    """
    v = a.shape[0]
    basis: list[tuple[list[Fraction], list[Fraction]]] = []
    vec = np.zeros(v, dtype=np.int64)
    vec[seed] = 1
    power = 0
    while power <= v:
        combo = [Fraction(0)] * power + [Fraction(1)]
        residual = [Fraction(int(x)) for x in vec]
        for reduced, rc in basis:
            lead = next(i for i in range(v) if reduced[i] != 0)
            if residual[lead] == 0:
                continue
            factor = residual[lead] / reduced[lead]
            residual = [x - factor * y for x, y in zip(residual, reduced)]
            for i, c in enumerate(rc):
                combo[i] -= factor * c
        if all(x == 0 for x in residual):
            return combo
        basis.append((residual, combo))
        vec = exact_matmul(a, vec)
        power += 1
    raise AssertionError("Krylov iteration exceeded the space dimension")


def _integer_roots(poly: list[Fraction], bound: int) -> list[int]:
    """Integer roots of the polynomial, searched within [-bound, bound].

    Callers pass the maximum degree of the graph, which bounds the spectral
    radius of its adjacency matrix.
    """
    denom = 1
    for c in poly:
        denom = math.lcm(denom, c.denominator)
    coeffs = [int(c * denom) for c in poly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    roots = []
    low = 0
    while low < len(coeffs) and coeffs[low] == 0:
        low += 1
    if low:
        roots.append(0)
        coeffs = coeffs[low:]
    constant = abs(coeffs[0])
    for cand in range(-bound, bound + 1):
        if cand == 0 or constant % abs(cand):
            continue
        value = 0
        for c in reversed(coeffs):
            value = value * cand + c
        if value == 0:
            roots.append(cand)
    return sorted(roots)
