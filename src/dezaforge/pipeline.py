"""End-to-end pipeline: every certified claim in one ordered JSON report.

Stages run sequentially; each produces a certificate dictionary and a pass
flag, and any exception inside a stage is converted into a failing stage
certificate instead of aborting the run, so one corrupted input still yields
a complete (failing) report. The report passes overall iff every stage
passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from . import __version__
from .autiso import SearchBudgetError, automorphism_group, verify_subgroup
from .catalog import (
    build_graph,
    involutions_for,
    known_generators,
    lifted_switching_involution,
    switching_involution,
)
from .certify import certify_ddg, certify_deza, certify_srg
from .gf3 import (
    ConnectionSet,
    M11_GEN_A,
    M11_GEN_B,
    all_vectors,
    connection_set_s1,
    mat_vec_mul,
    orbit,
)
from .golay import (
    code_from_parity_check,
    connection_set_S2,
    coset_graph,
    pair_sums_cover,
    parity_check_H,
    reversal_perm,
)
from .graphcore import (
    Graph,
    cayley,
    classify_involution_pairs,
    dual_seidel_switch,
    is_automorphism,
    strong_product_K2,
)
from .permgroup import is_involution, perm_from_matrix
from .spectra import SpectrumClaim, certify_spectrum

SCHEMA = "deza-forge/1"

GAMMA_SRG = (243, 22, 1, 2)
DELTA_DEZA = (243, 22, 2, 1)
PRODUCT_DEZA = (486, 45, 44, 4)
DELTA_SPECTRUM = ((22, 1), (5, 48), (4, 72), (-4, 60), (-5, 62))
GAMMA_K2_SPECTRUM = ((45, 1), (9, 132), (-1, 243), (-9, 110))
DELTA_K2_SPECTRUM = ((45, 1), (9, 120), (1, 108), (-1, 135), (-9, 122))
DDG_PARAMS = (243, 2, 44, 4)
M11_ORDER = 7920
FULL_GROUP_ORDER = 3_849_120
DELTA_AUT_ORDER = 2592


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one pipeline run.

    s1_override replaces the embedded first connection set; it exists for
    negative-control tests that corrupt the input and expect the strongly
    regular certification stage to fail with a witness.
    """

    deep: bool = False
    aut_node_budget: int = 2_000_000
    aut_time_budget: float | None = 1800.0
    s1_override: ConnectionSet | None = None

    def echo(self) -> dict[str, Any]:
        return {
            "deep": self.deep,
            "aut_node_budget": self.aut_node_budget,
            "aut_time_budget": self.aut_time_budget,
            "s1_override": (
                sorted(self.s1_override) if self.s1_override is not None else None
            ),
        }


@dataclass
class StageResult:
    name: str
    inputs: dict[str, Any]
    certificate: dict[str, Any]
    passed: bool
    elapsed: float

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "certificate": self.certificate,
            "pass": self.passed,
            "elapsed": self.elapsed,
        }


@dataclass
class Report:
    config: PipelineConfig
    stages: list[StageResult] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(stage.passed for stage in self.stages)

    def stage(self, name: str) -> StageResult:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "tool_version": __version__,
            "config": self.config.echo(),
            "stages": [stage.to_json() for stage in self.stages],
            "overall_pass": self.overall_pass,
        }


def _run_stage(
    report: Report,
    name: str,
    inputs: dict[str, Any],
    fn: Callable[[], tuple[dict[str, Any], bool]],
) -> None:
    start = time.monotonic()
    try:
        certificate, passed = fn()
    except Exception as exc:  # stage isolation: a failure must not end the run
        certificate, passed = (
            {"type": "error", "error": type(exc).__name__, "message": str(exc)},
            False,
        )
    report.stages.append(
        StageResult(name, inputs, certificate, passed, time.monotonic() - start)
    )


def run_pipeline(config: PipelineConfig | None = None) -> Report:
    """Execute every stage in order and return the full report."""
    cfg = config or PipelineConfig()
    report = Report(config=cfg)
    objects: dict[str, Any] = {}

    def need(key: str) -> Any:
        if key not in objects:
            raise RuntimeError(f"stage input {key!r} unavailable (earlier failure)")
        return objects[key]

    s1 = cfg.s1_override if cfg.s1_override is not None else connection_set_s1()
    s2 = connection_set_S2()

    def build_gamma() -> tuple[dict[str, Any], bool]:
        g = cayley(5, s1, label="gamma")
        objects["gamma"] = g
        cert = _graph_summary(g)
        return cert, g.v == 243 and g.is_regular()

    _run_stage(
        report,
        "build-gamma",
        {"graph": "gamma", "connection_set_size": len(s1)},
        build_gamma,
    )

    def build_gamma_s2() -> tuple[dict[str, Any], bool]:
        g = cayley(5, s2, label="gamma-s2")
        objects["gamma-s2"] = g
        cert = _graph_summary(g)
        return cert, g.v == 243 and g.is_regular()

    _run_stage(
        report,
        "build-gamma-s2",
        {"graph": "gamma-s2", "connection_set_size": len(s2)},
        build_gamma_s2,
    )

    for key in ("gamma", "gamma-s2"):

        def certify(key: str = key) -> tuple[dict[str, Any], bool]:
            cert = certify_srg(need(key))
            return cert.to_json(), cert.passed and cert.parameters == GAMMA_SRG

        _run_stage(
            report,
            f"certify-srg-{key}",
            {"graph": key, "expected_parameters": list(GAMMA_SRG)},
            certify,
        )

    def linear_iso() -> tuple[dict[str, Any], bool]:
        from .autiso import find_linear_cayley_isomorphism

        matrix = find_linear_cayley_isomorphism(s1, s2)
        if matrix is None:
            return {"type": "linear-isomorphism", "found": False}, False
        verified = frozenset(mat_vec_mul(v, matrix) for v in s1) == s2.vectors
        cert = {
            "type": "linear-isomorphism",
            "found": True,
            "matrix": [list(matrix.row(i)) for i in range(matrix.rows)],
            "verified": verified,
        }
        return cert, verified

    _run_stage(
        report,
        "linear-isomorphism",
        {"source": "s1", "target": "s2"},
        linear_iso,
    )

    def orbit_sizes() -> tuple[dict[str, Any], bool]:
        gens = (M11_GEN_A, M11_GEN_B)
        first = orbit(gens, (1, 0, 0, 0, 0))
        outside = next(
            tuple(int(x) for x in row)
            for row in all_vectors(5)
            if any(row) and tuple(int(x) for x in row) not in first
        )
        second = orbit(gens, outside)
        sizes = sorted((len(first), len(second)))
        matches = first == s1.vectors
        cert = {
            "type": "orbits",
            "sizes": sizes,
            "matches_connection_set": matches,
        }
        return cert, sizes == [22, 220] and matches

    _run_stage(
        report,
        "orbit-sizes",
        {"generators": 2, "seed": [1, 0, 0, 0, 0]},
        orbit_sizes,
    )

    def involution_sweep() -> tuple[dict[str, Any], bool]:
        rows = []
        passed = True
        sweep = [("gamma", n, p) for n, p in involutions_for("gamma").items()]
        sweep.append(("gamma-s2", "reversal", reversal_perm()))
        for graph_name, inv_name, perm in sweep:
            g = need(graph_name)
            row: dict[str, Any] = {
                "graph": graph_name,
                "involution": inv_name,
                "is_automorphism": is_automorphism(g, perm),
                "is_involution": is_involution(perm),
            }
            if row["is_automorphism"] and row["is_involution"]:
                row.update(classify_involution_pairs(g, perm))
            else:
                passed = False
            rows.append(row)
        objects["sweep-rows"] = rows
        return {"type": "involution-sweep", "rows": rows}, passed

    _run_stage(
        report,
        "involution-sweep",
        {"graphs": ["gamma", "gamma-s2"]},
        involution_sweep,
    )

    def theorem_representatives() -> tuple[dict[str, Any], bool]:
        rows = need("sweep-rows")
        gamma_rows = [r for r in rows if r["graph"] == "gamma"]
        only_non_adjacent = [
            r
            for r in gamma_rows
            if r.get("adjacent_swaps") == 0 and r.get("nonadjacent_swaps", 0) > 0
        ]
        only_adjacent = [
            r
            for r in gamma_rows
            if r.get("nonadjacent_swaps") == 0 and r.get("adjacent_swaps", 0) > 0
        ]
        reversal_row = next(r for r in rows if r["involution"] == "reversal")
        checks = {
            "exactly_one_only_non_adjacent": len(only_non_adjacent) == 1,
            "no_only_adjacent": len(only_adjacent) == 0,
            "non_adjacent_representative_fixes_27": bool(
                only_non_adjacent and only_non_adjacent[0].get("fixed") == 27
            ),
            "reversal_only_non_adjacent": reversal_row.get("adjacent_swaps") == 0
            and reversal_row.get("nonadjacent_swaps", 0) > 0,
            "reversal_fixes_27": reversal_row.get("fixed") == 27,
        }
        cert = {"type": "theorem-representatives", **checks}
        return cert, all(checks.values())

    _run_stage(
        report,
        "theorem-representatives",
        {"representatives": ["negation", "switching", "negated-switching"]},
        theorem_representatives,
    )

    def switch_delta() -> tuple[dict[str, Any], bool]:
        delta = dual_seidel_switch(need("gamma"), switching_involution()).relabel(
            "delta"
        )
        objects["delta"] = delta
        cert = certify_deza(delta)
        ok = (
            cert.passed
            and (cert.v, cert.k, cert.b, cert.a) == DELTA_DEZA
            and cert.strict
        )
        return cert.to_json(), ok

    _run_stage(
        report,
        "switch-delta",
        {"graph": "gamma", "involution": "switching", "expected": list(DELTA_DEZA)},
        switch_delta,
    )

    def spectrum_of(key: str, pairs: tuple) -> Callable[[], tuple[dict, bool]]:
        def run() -> tuple[dict[str, Any], bool]:
            cert = certify_spectrum(need(key), SpectrumClaim.from_pairs(pairs))
            return cert.to_json(), cert.passed

        return run

    _run_stage(
        report,
        "spectrum-delta",
        {"graph": "delta", "claim": [list(p) for p in DELTA_SPECTRUM]},
        spectrum_of("delta", DELTA_SPECTRUM),
    )

    def product_gamma_k2() -> tuple[dict[str, Any], bool]:
        gk2 = strong_product_K2(need("gamma"), label="gamma-k2")
        objects["gamma-k2"] = gk2
        cert = certify_deza(gk2)
        ok = (
            cert.passed
            and (cert.v, cert.k, cert.b, cert.a) == PRODUCT_DEZA
            and cert.strict
            and cert.beta_min == 1
            and cert.beta_max == 1
        )
        return cert.to_json(), ok

    _run_stage(
        report,
        "product-gamma-k2",
        {"graph": "gamma", "expected": list(PRODUCT_DEZA)},
        product_gamma_k2,
    )

    _run_stage(
        report,
        "spectrum-gamma-k2",
        {"graph": "gamma-k2", "claim": [list(p) for p in GAMMA_K2_SPECTRUM]},
        spectrum_of("gamma-k2", GAMMA_K2_SPECTRUM),
    )

    def lift_stage() -> tuple[dict[str, Any], bool]:
        lifted = lifted_switching_involution()
        gk2 = need("gamma-k2")
        ok_aut = is_automorphism(gk2, lifted)
        ok_inv = is_involution(lifted)
        cert: dict[str, Any] = {
            "type": "lifted-involution",
            "is_automorphism": ok_aut,
            "is_involution": ok_inv,
        }
        if ok_aut and ok_inv:
            cert.update(classify_involution_pairs(gk2, lifted))
        objects["lifted"] = lifted
        ok = (
            ok_aut
            and ok_inv
            and cert.get("adjacent_swaps") == 0
            and cert.get("fixed") == 54
        )
        return cert, ok

    _run_stage(
        report,
        "lift-involution",
        {"graph": "gamma-k2", "involution": "lifted-switching"},
        lift_stage,
    )

    def switch_delta_k2() -> tuple[dict[str, Any], bool]:
        dk2 = dual_seidel_switch(need("gamma-k2"), need("lifted")).relabel(
            "delta-k2"
        )
        objects["delta-k2"] = dk2
        cert = certify_deza(dk2)
        ok = (
            cert.passed
            and (cert.v, cert.k, cert.b, cert.a) == PRODUCT_DEZA
            and cert.strict
        )
        return cert.to_json(), ok

    _run_stage(
        report,
        "switch-delta-k2",
        {
            "graph": "gamma-k2",
            "involution": "lifted-switching",
            "expected": list(PRODUCT_DEZA),
        },
        switch_delta_k2,
    )

    def spectrum_delta_k2() -> tuple[dict[str, Any], bool]:
        cert = certify_spectrum(
            need("delta-k2"), SpectrumClaim.from_pairs(DELTA_K2_SPECTRUM)
        )
        differs = sorted(DELTA_K2_SPECTRUM) != sorted(GAMMA_K2_SPECTRUM)
        out = cert.to_json()
        out["differs_from_gamma_k2"] = differs
        return out, cert.passed and differs

    _run_stage(
        report,
        "spectrum-delta-k2",
        {"graph": "delta-k2", "claim": [list(p) for p in DELTA_K2_SPECTRUM]},
        spectrum_delta_k2,
    )

    for key in ("gamma-k2", "delta-k2"):

        def ddg(key: str = key) -> tuple[dict[str, Any], bool]:
            cert = certify_ddg(need(key))
            ok = (
                cert.passed
                and (cert.m, cert.n, cert.lambda1, cert.lambda2) == DDG_PARAMS
            )
            return cert.to_json(), ok

        _run_stage(
            report,
            f"ddg-{key}",
            {"graph": key, "expected": list(DDG_PARAMS)},
            ddg,
        )

    def subgroup_orders() -> tuple[dict[str, Any], bool]:
        gamma = need("gamma")
        two_gen = verify_subgroup(
            gamma, [perm_from_matrix(M11_GEN_A), perm_from_matrix(M11_GEN_B)]
        )
        full = verify_subgroup(gamma, known_generators("gamma"))
        cert = {
            "type": "subgroup-orders",
            "matrix_generators_order": two_gen,
            "full_seed_order": full,
        }
        return cert, two_gen == M11_ORDER and full == FULL_GROUP_ORDER

    _run_stage(
        report,
        "subgroup-orders",
        {"graph": "gamma", "expected": [M11_ORDER, FULL_GROUP_ORDER]},
        subgroup_orders,
    )

    if cfg.deep:
        for key, expected in (("delta", DELTA_AUT_ORDER), ("gamma", FULL_GROUP_ORDER)):

            def aut(key: str = key, expected: int = expected) -> tuple[dict, bool]:
                g = need(key)
                seeds = known_generators(key)
                try:
                    result = automorphism_group(
                        g,
                        seeds=seeds,
                        node_budget=cfg.aut_node_budget,
                        time_budget=cfg.aut_time_budget,
                    )
                except SearchBudgetError as exc:
                    lower = verify_subgroup(g, seeds)
                    cert = {
                        "type": "aut",
                        "graph": key,
                        "lower_bound_only": True,
                        "lower_bound": max(lower, exc.lower_bound),
                        "nodes_searched": exc.nodes,
                        "expected_order": expected,
                    }
                    # documented soft pass: the seeds already witness the
                    # expected order as a subgroup lower bound
                    return cert, max(lower, exc.lower_bound) == expected
                cert = result.to_json()
                cert["type"] = "aut"
                cert["graph"] = key
                cert["lower_bound_only"] = False
                cert["expected_order"] = expected
                return cert, result.order == expected

            _run_stage(
                report,
                f"aut-{key}",
                {"graph": key, "seeded": True},
                aut,
            )

    def golay_stage() -> tuple[dict[str, Any], bool]:
        h = parity_check_H()
        code = code_from_parity_check(h)
        coset = coset_graph(code)
        same = coset == cayley(5, s2, label="golay-coset")
        checks = {
            "dimension": code.dimension,
            "codewords": len(code),
            "minimum_distance": code.minimum_distance(),
            "signed_columns": len(s2),
            "pair_sums_cover": pair_sums_cover(s2),
            "coset_graph_matches_cayley": same,
        }
        ok = (
            checks["dimension"] == 6
            and checks["codewords"] == 729
            and checks["minimum_distance"] == 5
            and checks["signed_columns"] == 22
            and checks["pair_sums_cover"]
            and same
        )
        return {"type": "golay", **checks}, ok

    _run_stage(report, "golay-code", {"code": "ternary-golay"}, golay_stage)

    return report


def _graph_summary(g: Graph) -> dict[str, Any]:
    return {
        "type": "graph",
        "label": g.label,
        "vertices": g.v,
        "edges": g.edge_count(),
        "regular": g.is_regular(),
        "degree": g.degree() if g.is_regular() else None,
    }
