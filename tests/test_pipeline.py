import json

import pytest

from dezaforge import gf3
from dezaforge.catalog import switching_involution
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


@pytest.fixture(scope="module")
def shallow_report():
    return run_pipeline(PipelineConfig())


def corrupted_s1():
    s1 = gf3.connection_set_s1()
    vecs = sorted(s1.vectors)
    drop = vecs[0]
    drop_neg = tuple((-x) % 3 for x in drop)
    cand = next(
        tuple(int(c) for c in row)
        for row in gf3.all_vectors(5)
        if any(row)
        and tuple(int(c) for c in row) not in s1.vectors
        and tuple((-int(c)) % 3 for c in row) != tuple(int(c) for c in row)
    )
    return gf3.ConnectionSet.from_vectors(
        (set(s1.vectors) - {drop, drop_neg}) | {cand, tuple((-x) % 3 for x in cand)}
    )


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


def test_stage_accessor(shallow_report):
    assert shallow_report.stage("golay-code").passed
    with pytest.raises(KeyError):
        shallow_report.stage("no-such-stage")


def test_spectrum_constants_are_the_published_values():
    assert DELTA_SPECTRUM == ((22, 1), (5, 48), (4, 72), (-4, 60), (-5, 62))
    assert GAMMA_K2_SPECTRUM == ((45, 1), (9, 132), (-1, 243), (-9, 110))
    assert DELTA_K2_SPECTRUM == ((45, 1), (9, 120), (1, 108), (-1, 135), (-9, 122))
    assert sorted(GAMMA_K2_SPECTRUM) != sorted(DELTA_K2_SPECTRUM)


def test_theorem_stage_details(shallow_report):
    cert = shallow_report.stage("theorem-representatives").certificate
    assert cert["exactly_one_only_non_adjacent"]
    assert cert["no_only_adjacent"]
    assert cert["non_adjacent_representative_fixes_27"]
    assert cert["reversal_only_non_adjacent"]
    assert cert["reversal_fixes_27"]


def test_subgroup_stage_details(shallow_report):
    cert = shallow_report.stage("subgroup-orders").certificate
    assert cert["matrix_generators_order"] == 7920
    assert cert["full_seed_order"] == 3_849_120


def test_deep_run_adds_aut_stages():
    report = run_pipeline(PipelineConfig(deep=True))
    names = [s.name for s in report.stages]
    assert "aut-delta" in names and "aut-gamma" in names
    assert report.overall_pass
    assert report.stage("aut-delta").certificate["order"] == 2592
    assert report.stage("aut-gamma").certificate["order"] == 3_849_120
    assert not report.stage("aut-delta").certificate["lower_bound_only"]


def test_deep_run_budget_exhaustion_soft_passes():
    report = run_pipeline(PipelineConfig(deep=True, aut_node_budget=2))
    for name, expected in (("aut-delta", 2592), ("aut-gamma", 3_849_120)):
        stage = report.stage(name)
        assert stage.passed
        assert stage.certificate["lower_bound_only"] is True
        assert stage.certificate["lower_bound"] == expected
    assert report.overall_pass


def test_corrupted_s1_fails_with_witness():
    report = run_pipeline(PipelineConfig(s1_override=corrupted_s1()))
    assert not report.overall_pass
    srg = report.stage("certify-srg-gamma")
    assert not srg.passed
    witnesses = srg.certificate["witnesses"]
    assert witnesses["reason"] == "common-neighbour count not constant"
    assert witnesses.get("adjacent") or witnesses.get("nonadjacent")
    # the run still executes to completion
    assert [s.name for s in report.stages] == SHALLOW_STAGES
    # and the stages that do not depend on S1 still pass
    assert report.stage("certify-srg-gamma-s2").passed
    assert report.stage("golay-code").passed


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
    squares = [(module, a) for module, a in matmul_calls if a is not None]
    # gamma, gamma-s2, delta, gamma-k2 and delta-k2, one A^2 each, by Graph.square
    assert sorted(a.shape[0] for _, a in squares) == [243, 243, 243, 486, 486]
    assert len({id(a) for _, a in squares}) == 5
    assert {module for module, _ in squares} == {"graphcore"}
    # every graph of the run has diameter 2, which A^2 settles without a product
    assert not any(module == "certify" for module, _ in matmul_calls)
