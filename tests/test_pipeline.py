import json

import numpy as np
import pytest

from dezaforge import autiso, gf3, pipeline
from dezaforge.catalog import (
    build_graph,
    connection_set_s1,
    known_generators,
    switching_involution,
)
from dezaforge.gf3 import M11_GEN_A, M11_GEN_B
from dezaforge.permgroup import perm_from_matrix
from dezaforge.pipeline import (
    DELTA_K2_SPECTRUM,
    DELTA_SPECTRUM,
    GAMMA_K2_SPECTRUM,
    PipelineConfig,
    Report,
    SCHEMA,
    involution_row,
    run_pipeline,
)

SHALLOW_STAGES = [
    "build-gamma",
    "build-gamma-s2",
    "certify-srg-gamma",
    "certify-srg-gamma-s2",
    "linear-isomorphism",
    "orbit-sizes",
    "involution-sweep",
    "theorem-representatives",
    "switch-delta",
    "spectrum-delta",
    "product-gamma-k2",
    "spectrum-gamma-k2",
    "lift-involution",
    "switch-delta-k2",
    "spectrum-delta-k2",
    "ddg-gamma-k2",
    "ddg-delta-k2",
    "subgroup-orders",
    "golay-code",
]


def stage(report, name):
    """The stage of the report with this name."""
    return next(s for s in report.stages if s.name == name)


@pytest.fixture(scope="module")
def shallow_report():
    return run_pipeline(PipelineConfig())


def corrupted_s1():
    """S1 with its lexicographically first pair swapped for the pair of the
    first nonzero vertex outside it."""
    s1 = connection_set_s1()
    drop = s1.vectors[0]
    cand = gf3.all_vectors(5)[np.setdiff1d(np.arange(1, 243), s1.indices)[0]]
    keep = [v for v in s1.vectors.tolist() if v not in (drop.tolist(), (-drop % 3).tolist())]
    return gf3.ConnectionSet(keep + [cand, -cand % 3])


def test_shallow_run_passes(shallow_report):
    assert shallow_report.overall_pass
    assert [s.name for s in shallow_report.stages] == SHALLOW_STAGES


def test_report_json_schema(shallow_report):
    out = shallow_report.to_json()
    assert out["schema"] == SCHEMA == "deza-forge/1"
    assert out["overall_pass"] is True
    assert out["config"]["deep"] is False
    assert len(out["stages"]) == len(SHALLOW_STAGES)
    for stage in out["stages"]:
        assert set(stage) == {"name", "inputs", "certificate", "pass", "elapsed"}
        assert stage["pass"] is True
    json.dumps(out)  # serializable end to end


def test_spectrum_constants_are_the_published_values():
    assert DELTA_SPECTRUM == ((22, 1), (5, 48), (4, 72), (-4, 60), (-5, 62))
    assert GAMMA_K2_SPECTRUM == ((45, 1), (9, 132), (-1, 243), (-9, 110))
    assert DELTA_K2_SPECTRUM == ((45, 1), (9, 120), (1, 108), (-1, 135), (-9, 122))
    assert sorted(GAMMA_K2_SPECTRUM) != sorted(DELTA_K2_SPECTRUM)


def test_theorem_stage_details(shallow_report):
    cert = stage(shallow_report, "theorem-representatives").certificate
    assert cert["exactly_one_only_non_adjacent"]
    assert cert["no_only_adjacent"]
    assert cert["non_adjacent_representative_fixes_27"]
    assert cert["reversal_only_non_adjacent"]
    assert cert["reversal_fixes_27"]


def test_subgroup_stage_details(shallow_report):
    cert = stage(shallow_report, "subgroup-orders").certificate
    assert cert["matrix_generators_order"] == 7920
    assert cert["full_seed_order"] == 3_849_120


def _subgroup_stage(gamma):
    ctx = pipeline._Context(PipelineConfig(), connection_set_s1(), connection_set_s1())
    ctx.objects["gamma"] = gamma
    return pipeline._subgroup_orders(ctx)


def test_subgroup_orders_checks_every_seed(monkeypatch):
    checked = []
    witness = autiso.automorphism_witness

    def counted_witness(g, sigma):
        checked.append(sigma)
        return witness(g, sigma)

    monkeypatch.setattr(autiso, "automorphism_witness", counted_witness)
    cert, ok = _subgroup_stage(build_graph("gamma"))
    assert ok and (cert["matrix_generators_order"], cert["full_seed_order"]) == (
        7920, 3_849_120
    )
    # the two M11 generators, then the eight seeds: five translations, the
    # two generators again and negation
    pair = [perm_from_matrix(M11_GEN_A), perm_from_matrix(M11_GEN_B)]
    assert checked == pair + known_generators("gamma")


def test_subgroup_orders_rejects_a_non_automorphism_seed():
    # with S1 corrupted the M11 generators are not automorphisms of gamma
    gamma = pipeline.cayley(corrupted_s1())
    with pytest.raises(autiso.NotAnAutomorphismError) as info:
        _subgroup_stage(gamma)
    u, w = info.value.witness
    sigma = perm_from_matrix(M11_GEN_A)
    assert gamma.adjacency[u, w] != gamma.adjacency[sigma.images[u], sigma.images[w]]
    report = run_pipeline(PipelineConfig(s1_override=corrupted_s1()))
    assert stage(report, "subgroup-orders").certificate == {
        "type": "error",
        "error": "NotAnAutomorphismError",
        "message": f"permutation does not preserve adjacency at the pair ({u}, {w})",
    }


def test_deep_run_adds_aut_stages():
    report = run_pipeline(PipelineConfig(deep=True))
    names = [s.name for s in report.stages]
    assert "aut-delta" in names and "aut-gamma" in names
    assert report.overall_pass
    assert stage(report, "aut-delta").certificate["order"] == 2592
    assert stage(report, "aut-gamma").certificate["order"] == 3_849_120
    assert not stage(report, "aut-delta").certificate["lower_bound_only"]


def test_deep_run_budget_exhaustion_soft_passes():
    report = run_pipeline(PipelineConfig(deep=True, aut_node_budget=2))
    for name, expected in (("aut-delta", 2592), ("aut-gamma", 3_849_120)):
        result = stage(report, name)
        assert result.passed
        assert result.certificate["lower_bound_only"] is True
        assert result.certificate["lower_bound"] == expected
    assert report.overall_pass


def test_corrupted_s1_fails_with_witness():
    report = run_pipeline(PipelineConfig(s1_override=corrupted_s1()))
    assert not report.overall_pass
    srg = stage(report, "certify-srg-gamma")
    assert not srg.passed
    witnesses = srg.certificate["witnesses"]
    assert witnesses["reason"] == "common-neighbour count not constant"
    assert witnesses.get("adjacent") or witnesses.get("nonadjacent")
    # the run still executes to completion
    assert [s.name for s in report.stages] == SHALLOW_STAGES
    # and the stages that do not depend on S1 still pass
    assert stage(report, "certify-srg-gamma-s2").passed
    assert stage(report, "golay-code").passed


def test_config_echo_round_trip():
    config = PipelineConfig(deep=True, aut_node_budget=10, aut_time_budget=1.5)
    echo = config.echo()
    assert echo == {
        "deep": True,
        "aut_node_budget": 10,
        "aut_time_budget": 1.5,
        "s1_override": None,
    }


def test_involution_row_tests_the_automorphism_once(gamma, witness_calls):
    row, ok = involution_row(gamma, switching_involution())
    assert ok and row["fixed"] == 27
    assert len(witness_calls) == 1


def test_deep_run_squares_each_graph_once(matmul_calls):
    report = run_pipeline(PipelineConfig(deep=True))
    assert report.overall_pass
    squares = [(module, a) for module, a, _ in matmul_calls if a is not None]
    # gamma and gamma-s2, one A^2 each, by Graph.square; delta, gamma-k2 and
    # delta-k2 read theirs from gamma's through the switch and the product
    assert sorted(a.shape[0] for _, a in squares) == [243, 243]
    assert len({id(a) for _, a in squares}) == 2
    assert {module for module, _ in squares} == {"graphcore"}
    # every graph of the run has diameter 2, which A^2 settles without a product
    assert not any(module == "certify" for module, _, _ in matmul_calls)


def test_deep_run_spectrum_stages_make_five_products(matmul_calls):
    assert run_pipeline(PipelineConfig(deep=True)).overall_pass
    # the (1, 1) products are power_traces' entrywise sums
    full = [s[0] for module, _, s in matmul_calls if module == "spectra" and s != (1, 1)]
    # delta and delta-k2 have 5 eigenvalues (2 products each), gamma-k2 4 (1)
    assert sorted(full) == [243, 243, 486, 486, 486]


def test_deep_run_searches_six_nodes_and_checks_automorphisms_on_arcs(monkeypatch):
    # the seeds' affine orders meet the first path's cell products, so each
    # seeded search ends at its first leaf, and every automorphism check of a
    # passing run is settled on the arc list: a search past the first path
    # (30 nodes on gamma) or a return to full matrix compares fails here
    full_compares = []
    ix = np.ix_

    def counted_ix(*args):
        full_compares.append(args)
        return ix(*args)

    monkeypatch.setattr(np, "ix_", counted_ix)
    report = run_pipeline(PipelineConfig(deep=True))
    assert report.overall_pass
    for key in ("aut-gamma", "aut-delta"):
        assert stage(report, key).certificate["nodes_searched"] == 6, key
    assert full_compares == []


def test_config_echo_lists_the_override_in_lexicographic_order():
    # S1 with its first pair (0,0,1,0,1), (0,0,2,0,2) swapped for (0,1,0,0,0), (0,2,0,0,0)
    echo = PipelineConfig(s1_override=corrupted_s1()).echo()
    listed = json.loads(json.dumps(echo))["s1_override"]
    assert listed == [
        [int(c) for c in word]
        for word in (
            "00121 00212 01000 01010 01012 01200 02000 02020 02021 02100 10000 "
            "10012 10210 11002 11202 11210 20000 20021 20120 22001 22101 22120"
        ).split()
    ]


def test_stages_after_a_failed_build_report_the_missing_ancestor():
    # a 4-dimensional S1 builds an 81-vertex graph, which fails build-gamma,
    # so no later stage may certify it
    s1 = gf3.ConnectionSet([(1, 0, 0, 0), (2, 0, 0, 0)])
    report = run_pipeline(PipelineConfig(s1_override=s1))
    assert not stage(report, "build-gamma").passed
    srg = stage(report, "certify-srg-gamma")
    assert not srg.passed
    assert srg.certificate == {
        "type": "error",
        "error": "RuntimeError",
        "message": "stage input 'gamma' unavailable (earlier failure)",
    }
    assert stage(report, "certify-srg-gamma-s2").passed
