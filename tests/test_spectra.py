from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dezaforge.certify import certify_srg
from dezaforge.graphcore import Graph, from_edges
from dezaforge.spectra import (
    InconsistentClaimError,
    SpectrumClaim,
    _annihilator,
    _integer_roots,
    _local_minimal_polynomial,
    annihilation_check,
    certify_spectrum,
    discover_spectrum,
    multiplicities_from_moments,
    power_traces,
)

GAMMA_SPECTRUM = ((22, 1), (4, 132), (-5, 110))
DELTA_SPECTRUM = ((22, 1), (5, 48), (4, 72), (-4, 60), (-5, 62))


def test_claim_parse():
    claim = SpectrumClaim.parse("22:1,4:132,-5:110")
    assert claim.pairs == GAMMA_SPECTRUM
    assert claim.total() == 243
    assert claim.eigenvalues == [22, 4, -5]
    assert claim.multiplicities == [1, 132, 110]


def test_claim_parse_errors():
    with pytest.raises(ValueError):
        SpectrumClaim.parse("")
    with pytest.raises(ValueError):
        SpectrumClaim.parse("3:2,3:1")  # repeated eigenvalue
    with pytest.raises(ValueError):
        SpectrumClaim.parse("3:0")  # zero multiplicity
    with pytest.raises(ValueError):
        SpectrumClaim.parse("3;2")


def test_power_traces_match_numpy(petersen):
    traces = power_traces(petersen, 5)
    assert len(traces) == 5  # A^0 .. A^4
    a = petersen.int_adjacency()
    m = np.eye(10, dtype=np.int64)
    for t in range(5):
        assert traces[t] == int(np.trace(m))
        m = m @ a


def test_annihilation_check(petersen):
    assert annihilation_check(petersen, (3, 1, -2))
    assert not annihilation_check(petersen, (3, 1))
    assert not annihilation_check(petersen, (3, 2, -2))


def test_multiplicities_from_moments():
    # petersen: traces of A^0..A^2 determine the multiplicities exactly
    traces = [10, 0, 30]
    assert multiplicities_from_moments((3, 1, -2), traces, 10) == [1, 5, 4]
    with pytest.raises(InconsistentClaimError):
        multiplicities_from_moments((3, 1, -2), [10, 0, 31], 10)
    with pytest.raises(InconsistentClaimError):
        multiplicities_from_moments((3, 3), [10, 0], 10)


def test_certify_petersen(petersen):
    cert = certify_spectrum(petersen, SpectrumClaim.from_pairs(((3, 1), (1, 5), (-2, 4))))
    assert cert.passed
    assert cert.annihilation
    assert cert.failure_stage is None


def test_certify_gamma(gamma):
    cert = certify_spectrum(gamma, SpectrumClaim.from_pairs(GAMMA_SPECTRUM))
    assert cert.passed


def test_certify_delta(delta):
    cert = certify_spectrum(delta, SpectrumClaim.from_pairs(DELTA_SPECTRUM))
    assert cert.passed


def test_certify_fails_on_wrong_total(petersen):
    cert = certify_spectrum(petersen, SpectrumClaim.from_pairs(((3, 1), (-2, 4))))
    assert not cert.passed
    assert cert.failure_stage == "claim"


def test_certify_fails_on_wrong_eigenvalues(petersen):
    cert = certify_spectrum(petersen, SpectrumClaim.from_pairs(((3, 1), (2, 5), (-2, 4))))
    assert not cert.passed
    assert cert.failure_stage == "annihilation"


def test_certify_fails_on_an_eigenvalue_beyond_int64(petersen):
    claim = SpectrumClaim.from_pairs(((10**20, 1), (1, 5), (-2, 4)))
    cert = certify_spectrum(petersen, claim)
    assert not cert.passed
    assert cert.failure_stage == "annihilation"
    assert annihilation_check(petersen, (10**20, 3, 1, -2))


def test_certify_fails_on_wrong_multiplicities(petersen):
    cert = certify_spectrum(petersen, SpectrumClaim.from_pairs(((3, 1), (1, 4), (-2, 5))))
    assert not cert.passed
    assert cert.failure_stage == "moments"
    assert cert.detail["solved_multiplicities"] == [1, 5, 4]


def test_discover_petersen(petersen):
    found = discover_spectrum(petersen)
    assert found.pairs == ((3, 1), (1, 5), (-2, 4))


def test_discover_gamma(gamma):
    assert discover_spectrum(gamma).pairs == GAMMA_SPECTRUM


def test_discover_delta_matches_claim(delta):
    assert discover_spectrum(delta).pairs == DELTA_SPECTRUM


def test_discover_rejects_irrational(c5):
    # C5 eigenvalues involve sqrt(5)
    with pytest.raises(InconsistentClaimError):
        discover_spectrum(c5)
    # K_{2,3} eigenvalues involve sqrt(6)
    k23 = from_edges(5, [(u, w) for u in range(2) for w in range(2, 5)])
    with pytest.raises(InconsistentClaimError):
        discover_spectrum(k23)


def test_discover_star_graph():
    # K_{1,4} has spectrum {2, 0^3, -2}
    star = from_edges(5, [(0, w) for w in range(1, 5)])
    assert discover_spectrum(star).pairs == ((2, 1), (0, 3), (-2, 1))


def test_discover_isolated_vertices_then_triangle():
    # seeds 0-7 are isolated vertices; only seed 8 sees the triangle's 2 and -1
    g = from_edges(11, [(8, 9), (9, 10), (8, 10)])
    assert discover_spectrum(g).pairs == ((2, 1), (0, 8), (-1, 2))


def test_discover_rejects_paley_at_the_first_seed():
    # P(13) has eigenvalues 6 and (-1 +- sqrt 13) / 2
    squares = {x * x % 13 for x in range(1, 13)}
    edges = [(u, w) for u in range(13) for w in range(u + 1, 13) if (w - u) % 13 in squares]
    paley = from_edges(13, edges)
    with pytest.raises(InconsistentClaimError, match="at vertex 0 has 2 non-integer roots"):
        discover_spectrum(paley)


def test_power_traces_beyond_the_fourth_power():
    # tr A^j of K_n is (n-1)^j + (n-1)(-1)^j; from j = 20 on it exceeds int64
    n = 40
    kn = from_edges(n, [(u, w) for u in range(n) for w in range(u + 1, n)])
    assert power_traces(kn, 30) == [(n - 1) ** j + (n - 1) * (-1) ** j for j in range(30)]
    for t in range(1, 5):
        assert power_traces(kn, t) == power_traces(kn, 30)[:t]


def _reference_moments(thetas, traces, v):
    """multiplicities_from_moments by Gauss-Jordan elimination, for the oracle test only."""
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
    mults = []
    for theta, m in zip(ts, [rows[r][n] for r in range(n)]):
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


def _outcome(solve, *args):
    try:
        return solve(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def moment_systems(draw):
    """Distinct nodes, 0 to n + 2 traces of some multiplicities (negative ones
    and one perturbed trace included), and a v that may not be their sum."""
    thetas = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=6, unique=True))
    n = len(thetas)
    mults = draw(st.lists(st.integers(-3, 40), min_size=n, max_size=n))
    # too few traces is one failure; most draws have enough to be solved
    count = draw(st.one_of(st.sampled_from([n + 2, n + 1, n]), st.integers(0, n - 1)))
    traces = [sum(m * t**j for m, t in zip(mults, thetas)) for j in range(count)]
    if traces and draw(st.booleans()):
        traces[draw(st.sampled_from(range(count)))] += draw(st.integers(-5, 5).filter(bool))
    v = draw(st.one_of(st.just(sum(mults)), st.integers(0, 300)))
    return thetas, traces, v


@settings(max_examples=200, deadline=None)
@given(moment_systems())
@example(([3, 1, -2], [10, 0, 30, 1], 10))  # petersen, tr A^3 = 0
def test_moments_match_gauss_jordan(system):
    assert _outcome(multiplicities_from_moments, *system) == _outcome(
        _reference_moments, *system
    )


def _times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-30, 30), unique=True, max_size=6),
    # 1, x^2 - 2 and x^2 + x + 1, low to high: no integer roots
    st.sampled_from([[1], [-2, 0, 1], [1, 1, 1]]),
    st.fractions(-10, 10, max_denominator=50).filter(bool),
    st.integers(0, 30),
)
@example([0, 3, -3], [-2, 0, 1], Fraction(-3, 7), 3)
def test_integer_roots_are_the_planted_roots_in_the_bound(roots, irreducible, scale, bound):
    poly = [Fraction(c) for c in irreducible]
    for r in roots:
        poly = _times(poly, [Fraction(-r), Fraction(1)])
    got = _integer_roots([scale * c for c in poly], bound)
    assert got == sorted(r for r in roots if abs(r) <= bound)


def test_spectra_and_srg_match_closed_forms(gen):
    family = [*gen.closed_form_family(), gen.isolated_plus_triangle()]
    assert len(family) == 19
    for i, e in enumerate(family):
        g = Graph(gen.relabel(e, np.random.default_rng([19, i])).adj)
        if e.spectrum is None:
            with pytest.raises(InconsistentClaimError):
                discover_spectrum(g)
        else:
            assert discover_spectrum(g).pairs == e.spectrum, e.name
            claim = SpectrumClaim.from_pairs(e.spectrum)
            assert certify_spectrum(g, claim).passed, e.name
        if e.srg is not None:
            cert = certify_srg(g)
            # conference graphs: irrational r and s leave the fields None
            (_, _), (r, f), (s, m) = e.spectrum or ((None, None),) * 3
            assert cert.parameters == e.srg, e.name
            assert (cert.r, cert.multiplicity_r, cert.s, cert.multiplicity_s) == (r, f, s, m)


@st.composite
def small_graphs(draw):
    v = draw(st.integers(1, 12))
    upper = np.triu(draw(arrays(np.bool_, (v, v), elements=st.booleans())), 1)
    return Graph(upper | upper.T)


# small eigenvalues, and ones whose pair sums and products leave int64
THETAS = st.integers(-6, 6) | st.sampled_from([2**32, -(2**62), 2**63, -(2**63) - 1, 10**20])


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.lists(THETAS, min_size=1, max_size=6, unique=True))
@example(Graph(np.ones((3, 3), dtype=bool) ^ np.eye(3, dtype=bool)), [2, -1])
def test_annihilator_equals_the_product_of_linear_factors(g, thetas):
    a = g.adjacency.astype(object)
    want = np.eye(g.v, dtype=np.int64).astype(object)
    for theta in thetas:
        want = want @ (a - theta * np.eye(g.v, dtype=np.int64).astype(object))
    got = _annihilator(g, thetas)
    assert got.shape == (g.v, g.v)
    assert got.tolist() == want.tolist()


def _reference_local_minimal_polynomial(a, seed):
    """_local_minimal_polynomial by elimination in Fraction lists, for the
    oracle test only."""
    v = a.shape[0]
    basis = []
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
        vec = a.astype(object) @ vec.astype(object)
        power += 1
    raise AssertionError("Krylov iteration exceeded the space dimension")


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_local_minimal_polynomial_matches_fraction_elimination(g):
    a = g.int_adjacency()
    for seed in range(g.v):
        assert _local_minimal_polynomial(a, seed) == _reference_local_minimal_polynomial(a, seed)


@pytest.mark.parametrize("d", range(1, 8))
def test_certify_spectrum_makes_a_product_per_pair_after_the_first(petersen, matmul_calls, d):
    claim = SpectrumClaim.from_pairs([(3, 11 - d)] + [(3 - i, 1) for i in range(1, d)])
    certify_spectrum(petersen, claim)
    products = sum(module == "spectra" and shape == (10, 10) for module, _, shape in matmul_calls)
    # annihilation makes ceil(d/2) - 1; power_traces one per odd moment past the fourth
    assert products == (d + 1) // 2 - 1 + max(0, (d - 4) // 2)
