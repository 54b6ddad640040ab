"""Acceptance suite: one timed pass/fail line per top-level claim.

Every criterion is exact (integer arithmetic end to end); the stated time
budgets are asserted. Criterion 12 honours DEZAFORGE_AUT_BUDGET (seconds,
default 1800) and degrades to a documented lower-bound-only soft pass when
the automorphism search exhausts its budget.
"""

import os
import time

import numpy as np
import pytest

from dezaforge.autiso import (
    SearchBudgetError,
    automorphism_group,
    find_linear_cayley_isomorphism,
)
from dezaforge.catalog import (
    build_graph,
    connection_set_s1,
    involutions_for,
    known_generators,
    lifted_switching_involution,
    petersen_transposition,
    switching_involution,
)
from dezaforge.certify import certify_ddg, certify_deza, certify_srg
from dezaforge.gf3 import M11_GEN_A, M11_GEN_B, indices_of
from dezaforge.golay import (
    code_from_parity_check,
    connection_set_S2,
    coset_graph,
    pair_sums_cover,
    parity_check_H,
)
from dezaforge.graphcore import (
    Graph,
    cayley,
    dual_seidel_switch,
    from_graph6,
    strong_product_K2,
    to_graph6,
)
from dezaforge.permgroup import orbit_labels, perm_from_matrix
from dezaforge.pipeline import (
    DELTA_K2_SPECTRUM,
    DELTA_SPECTRUM,
    GAMMA_K2_SPECTRUM,
    involution_row,
)
from dezaforge.spectra import SpectrumClaim, certify_spectrum
from schreier_sims import group_order

AUT_BUDGET = float(os.environ.get("DEZAFORGE_AUT_BUDGET", "1800"))


@pytest.fixture
def announce(capsys):
    """One pass/fail line per criterion, written through to the terminal."""

    def _announce(num: int, passed: bool, elapsed: float, budget: float | None, text: str) -> None:
        status = "PASS" if passed else "FAIL"
        window = f"{elapsed:7.3f}s" + (f" / {budget:g}s" if budget is not None else "")
        with capsys.disabled():
            print(f"[{status}] criterion {num:02d} ({window}): {text}", flush=True)

    return _announce


def test_criterion_01_gamma_is_srg_243_22_1_2(announce):
    start = time.perf_counter()
    cert = certify_srg(cayley(connection_set_s1()))
    elapsed = time.perf_counter() - start
    ok = cert.passed and cert.parameters == (243, 22, 1, 2)
    announce(1, ok and elapsed < 1.0, elapsed, 1.0, "Cay(V(5,3),S1) is SRG(243,22,1,2)")
    assert ok
    assert elapsed < 1.0


def test_criterion_02_gamma_s2_is_srg_and_linearly_isomorphic(announce):
    start = time.perf_counter()
    cert = certify_srg(cayley(connection_set_S2()))
    srg_elapsed = time.perf_counter() - start
    srg_ok = cert.passed and cert.parameters == (243, 22, 1, 2)

    start = time.perf_counter()
    s1 = connection_set_s1()
    s2 = connection_set_S2()
    matrix = find_linear_cayley_isomorphism(s1, s2)
    iso_ok = matrix is not None and np.array_equal(
        np.sort(indices_of(s1.vectors @ matrix % 3)), s2.indices
    )
    iso_elapsed = time.perf_counter() - start

    ok = srg_ok and iso_ok and srg_elapsed < 1.0 and iso_elapsed < 60.0
    announce(
        2, ok, srg_elapsed + iso_elapsed, 61.0,
        "Cay(V(5,3),S2) is SRG(243,22,1,2) and S1*L = S2 for a verified L",
    )
    assert srg_ok
    assert srg_elapsed < 1.0
    assert iso_ok
    assert iso_elapsed < 60.0


def test_criterion_03_orbit_sizes_22_and_220(announce):
    start = time.perf_counter()
    labels = orbit_labels(243, [perm_from_matrix(g).images for g in (M11_GEN_A, M11_GEN_B)])
    # vertex 1 is (1,0,0,0,0); vertex 0, the zero vector, is fixed
    small = np.flatnonzero(labels == labels[1])
    big = np.flatnonzero((labels != labels[1]) & (labels != 0))
    match = np.array_equal(small, connection_set_s1().indices)
    elapsed = time.perf_counter() - start
    ok = len(small) == 22 and len(big) == 220 and len(set(labels[big])) == 1 and match
    announce(3, ok and elapsed < 1.0, elapsed, 1.0, "<x,y> orbits have sizes 22 and 220; the 22-orbit is S1")
    assert ok
    assert elapsed < 1.0


def test_criterion_04_group_orders_7920_and_3849120(announce, verified_order):
    start = time.perf_counter()
    two_gen = group_order([perm_from_matrix(M11_GEN_A), perm_from_matrix(M11_GEN_B)])
    full = verified_order(build_graph("gamma"), known_generators("gamma"))
    elapsed = time.perf_counter() - start
    ok = two_gen == 7920 and full == 3_849_120
    announce(4, ok and elapsed < 10.0, elapsed, 10.0, "|<x,y>| = 7920 and the verified subgroup has order 3849120")
    assert ok
    assert elapsed < 10.0


def test_criterion_05_switching_representatives(announce):
    start = time.perf_counter()
    gamma = build_graph("gamma")
    checked = {
        name: involution_row(gamma, perm)
        for name, perm in involutions_for("gamma").items()
    }
    rows = {name: row for name, (row, _) in checked.items()}
    only_non_adjacent = [
        n for n, r in rows.items() if r["adjacent_swaps"] == 0 and r["nonadjacent_swaps"] > 0
    ]
    only_adjacent = [
        n for n, r in rows.items() if r["nonadjacent_swaps"] == 0 and r["adjacent_swaps"] > 0
    ]
    elapsed = time.perf_counter() - start
    ok = (
        all(row_ok for _, row_ok in checked.values())
        and len(only_non_adjacent) == 1
        and not only_adjacent
        and rows[only_non_adjacent[0]]["fixed"] == 27
    )
    announce(5, ok and elapsed < 1.0, elapsed, 1.0, "exactly one of {-e, x, -x} swaps only non-adjacent vertices, fixing 27")
    assert ok
    assert elapsed < 1.0


def test_criterion_06_reversal_involution(announce):
    start = time.perf_counter()
    gamma_s2 = build_graph("gamma-s2")
    rho = involutions_for("gamma-s2")["reversal"]
    counts, involutive_automorphism = involution_row(gamma_s2, rho)
    elapsed = time.perf_counter() - start
    ok = (
        involutive_automorphism
        and counts["adjacent_swaps"] == 0
        and counts["fixed"] == 27
    )
    announce(6, ok and elapsed < 1.0, elapsed, 1.0, "the reversal of Cay(V,S2) swaps only non-adjacent vertices, fixing 27")
    assert ok
    assert elapsed < 1.0


def test_criterion_07_delta_strictly_deza_with_spectrum(announce):
    start = time.perf_counter()
    delta = dual_seidel_switch(build_graph("gamma"), switching_involution())
    cert = certify_deza(delta)
    spectrum_cert = certify_spectrum(delta, SpectrumClaim.from_pairs(DELTA_SPECTRUM))
    elapsed = time.perf_counter() - start
    ok = (
        cert.passed
        and cert.parameters == (243, 22, 2, 1)
        and cert.strict
        and spectrum_cert.passed
    )
    announce(7, ok and elapsed < 5.0, elapsed, 5.0, "switching gamma gives strictly Deza (243,22,2,1), spectrum {22,5^48,4^72,-4^60,-5^62}")
    assert ok
    assert elapsed < 5.0


def test_criterion_08_gamma_k2_strictly_deza_with_spectrum(announce):
    start = time.perf_counter()
    gk2 = strong_product_K2(build_graph("gamma"))
    cert = certify_deza(gk2)
    spectrum_cert = certify_spectrum(gk2, SpectrumClaim.from_pairs(GAMMA_K2_SPECTRUM))
    elapsed = time.perf_counter() - start
    ok = (
        cert.passed
        and cert.parameters == (486, 45, 44, 4)
        and cert.strict
        and spectrum_cert.passed
    )
    announce(8, ok and elapsed < 10.0, elapsed, 10.0, "gamma[K2] is strictly Deza (486,45,44,4), spectrum {45,9^132,-1^243,-9^110}")
    assert ok
    assert elapsed < 10.0


def test_criterion_09_switched_product_spectrum_differs(announce):
    start = time.perf_counter()
    gk2 = build_graph("gamma-k2")
    lifted = lifted_switching_involution()
    counts, involutive_automorphism = involution_row(gk2, lifted)
    dk2 = dual_seidel_switch(gk2, lifted)
    cert = certify_deza(dk2)
    spectrum_cert = certify_spectrum(dk2, SpectrumClaim.from_pairs(DELTA_K2_SPECTRUM))
    elapsed = time.perf_counter() - start
    ok = (
        involutive_automorphism
        and counts["adjacent_swaps"] == 0
        and cert.passed
        and cert.parameters == (486, 45, 44, 4)
        and cert.strict
        and spectrum_cert.passed
        and sorted(DELTA_K2_SPECTRUM) != sorted(GAMMA_K2_SPECTRUM)
    )
    announce(9, ok and elapsed < 10.0, elapsed, 10.0, "switching gamma[K2] gives strictly Deza (486,45,44,4) with a different spectrum")
    assert ok
    assert elapsed < 10.0


def test_criterion_10_both_products_are_ddg(announce):
    start = time.perf_counter()
    certs = [certify_ddg(build_graph(n)) for n in ("gamma-k2", "delta-k2")]
    elapsed = time.perf_counter() - start
    ok = all(
        c.passed and (c.m, c.n, c.lambda1, c.lambda2) == (243, 2, 44, 4) for c in certs
    )
    announce(10, ok and elapsed < 5.0, elapsed, 5.0, "both 486-vertex graphs are DDGs with m=243, n=2, lambda1=44, lambda2=4")
    assert ok
    assert elapsed < 5.0


def test_criterion_11_ternary_golay_code(announce):
    start = time.perf_counter()
    code = code_from_parity_check(parity_check_H())
    s2 = connection_set_S2()
    same = coset_graph(code) == cayley(s2)
    elapsed = time.perf_counter() - start
    ok = (
        code.dimension == 6
        and len(code) == 729
        and code.minimum_distance() == 5
        and len(s2) == 22
        and pair_sums_cover(s2)
        and same
    )
    announce(11, ok and elapsed < 5.0, elapsed, 5.0, "[11,6,5] code: 729 words, 22 signed columns, pair-sum cover, coset graph = Cayley graph")
    assert ok
    assert elapsed < 5.0


def test_criterion_12_automorphism_group_orders(announce, verified_order):
    start = time.perf_counter()
    lower_bound_only = False
    results = {}
    for name, expected in (("delta", 2592), ("gamma", 3_849_120)):
        g = build_graph(name)
        seeds = known_generators(name)
        remaining = AUT_BUDGET - (time.perf_counter() - start)
        try:
            results[name] = automorphism_group(
                g, seeds=seeds, node_budget=5_000_000, time_budget=max(remaining, 1.0)
            ).order
        except SearchBudgetError:
            # documented soft pass: report the seed subgroup as a lower bound
            lower_bound_only = True
            results[name] = verified_order(g, seeds)
        assert results[name] == expected, (name, results[name])
    elapsed = time.perf_counter() - start
    suffix = " [lower-bound only]" if lower_bound_only else ""
    ok = results == {"delta": 2592, "gamma": 3_849_120}
    announce(12, ok and elapsed < AUT_BUDGET, elapsed, AUT_BUDGET, f"|Aut(delta)| = 2592 and |Aut(gamma)| = 3849120{suffix}")
    assert ok
    assert elapsed < AUT_BUDGET
    if lower_bound_only:
        assert results["delta"] % 2592 == 0
        assert results["gamma"] == 3_849_120


def test_criterion_13_property_suites(announce):
    start = time.perf_counter()

    # (a) SRG feasibility identity on every SRG certificate
    gamma = build_graph("gamma")
    srg_certs = [
        certify_srg(g)
        for g in (
            gamma,
            build_graph("gamma-s2"),
            build_graph("petersen"),
            Graph(~gamma.adjacency ^ np.eye(gamma.v, dtype=bool)),
        )
    ]
    feasible = all(
        c.passed and c.k * (c.k - c.lam - 1) == (c.v - c.k - 1) * c.mu
        for c in srg_certs
    )

    # (b) complement-parameter relation on gamma
    comp_cert = srg_certs[-1]
    complement_ok = (
        comp_cert.parameters == (243, 220, 199, 200)
        and (comp_cert.r, comp_cert.s) == (4, -5)
        and (comp_cert.multiplicity_r, comp_cert.multiplicity_s) == (110, 132)
    )

    # (c) neighbourhood equality on every switched graph
    petersen = build_graph("petersen")
    switch_cases = [
        (gamma, switching_involution(), build_graph("delta")),
        (build_graph("gamma-k2"), lifted_switching_involution(), build_graph("delta-k2")),
        (petersen, petersen_transposition(), dual_seidel_switch(petersen, petersen_transposition())),
    ]
    neighbourhoods = all(
        (switched.adjacency == original.adjacency[list(sigma.images)]).all()
        for original, sigma, switched in switch_cases
    )

    # (d) switched parameters are {max, min} of the source's two values
    ba_sets_match = all(
        {certify_deza(switched).b, certify_deza(switched).a}
        == {certify_deza(original).b, certify_deza(original).a}
        for original, _, switched in switch_cases
    )

    # (e) graph6 round-trips on every named graph
    round_trips = all(
        from_graph6(to_graph6(build_graph(n))) == build_graph(n)
        for n in ("gamma", "gamma-s2", "delta", "gamma-k2", "delta-k2", "petersen", "c5")
    )

    elapsed = time.perf_counter() - start
    ok = feasible and complement_ok and neighbourhoods and ba_sets_match and round_trips
    announce(13, ok, elapsed, None, "feasibility, complement, neighbourhood, {b,a}={max,min}, and graph6 properties")
    assert feasible
    assert complement_ok
    assert neighbourhoods
    assert ba_sets_match
    assert round_trips
