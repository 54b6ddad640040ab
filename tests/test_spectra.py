import numpy as np
import pytest

from dezaforge.graphcore import from_edges
from dezaforge.spectra import (
    InconsistentClaimError,
    SpectrumClaim,
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
