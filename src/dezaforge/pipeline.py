"""End-to-end pipeline: every certified claim in one ordered JSON report.

The stages form one ordered table of (name, inputs, fn), where fn takes the
run's shared context and returns a certificate dictionary and a pass flag.
Stages run sequentially; any exception inside a stage is converted into a
failing stage certificate instead of aborting the run, so one corrupted
input still yields a complete (failing) report. The report passes overall
iff every stage passes.

The checks that the CLI subcommands also expose (`graph_summary`,
`involution_row`, `linear_isomorphism`, `golay_checks`, `aut_check`) are
defined here once and called from both sides.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from . import __version__
from .autiso import (
    NODE_BUDGET,
    TIME_BUDGET,
    SearchBudgetError,
    automorphism_group,
    check_automorphism,
    find_linear_cayley_isomorphism,
)
from .catalog import (
    AUT_ORDERS,
    connection_set_s1,
    involutions_for,
    known_generators,
    lifted_switching_involution,
    m11_orbit_labels,
    matrix_group,
    seed_order,
    switching_involution,
)
from .certify import certify_ddg, certify_deza, certify_srg
from .gf3 import ConnectionSet, M11_GEN_A, M11_GEN_B, indices_of
from .golay import (
    code_from_parity_check,
    connection_set_S2,
    coset_graph,
    pair_sums_cover,
    parity_check_H,
)
from .graphcore import (
    Graph,
    cayley,
    dual_seidel_switch,
    involution_pair_counts,
    is_automorphism,
    strong_product_K2,
)
from .permgroup import Permutation, is_involution, perm_from_matrix
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

Check = tuple[dict[str, Any], bool]
StageFn = Callable[["_Context"], Check]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one pipeline run.

    s1_override replaces the embedded first connection set; it exists for
    negative-control tests that corrupt the input and expect the strongly
    regular certification stage to fail with a witness.
    """

    deep: bool = False
    aut_node_budget: int = NODE_BUDGET
    aut_time_budget: float = TIME_BUDGET
    s1_override: ConnectionSet | None = None

    def echo(self) -> dict[str, Any]:
        return {
            "deep": self.deep,
            "aut_node_budget": self.aut_node_budget,
            "aut_time_budget": self.aut_time_budget,
            "s1_override": (
                None if self.s1_override is None else self.s1_override.vectors.tolist()
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

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "tool_version": __version__,
            "config": self.config.echo(),
            "stages": [stage.to_json() for stage in self.stages],
            "overall_pass": self.overall_pass,
        }


# -- checks shared with the CLI ------------------------------------------------


def graph_summary(g: Graph) -> dict[str, Any]:
    """Vertex, edge and degree counts of g (not a check: it has no pass flag)."""
    return {
        "type": "graph",
        "label": g.label,
        "vertices": g.v,
        "edges": g.edge_count(),
        "regular": g.is_regular(),
        "degree": g.degree() if g.is_regular() else None,
    }


def involution_row(g: Graph, perm: Permutation) -> Check:
    """Whether perm is an involutive automorphism of g, with its pair counts."""
    row: dict[str, Any] = {
        "is_automorphism": is_automorphism(g, perm),
        "is_involution": is_involution(perm),
    }
    ok = row["is_automorphism"] and row["is_involution"]
    if ok:
        row.update(involution_pair_counts(g, perm))
    return row, ok


def linear_isomorphism(source: ConnectionSet, target: ConnectionSet) -> Check:
    """A matrix carrying source onto target, re-verified vector by vector."""
    matrix = find_linear_cayley_isomorphism(source, target)
    if matrix is None:
        return {"type": "linear-isomorphism", "found": False}, False
    images = np.sort(indices_of(source.vectors @ matrix % 3))
    verified = np.array_equal(images, target.indices)
    cert = {
        "type": "linear-isomorphism",
        "found": True,
        "matrix": matrix.tolist(),
        "verified": verified,
    }
    return cert, verified


def golay_checks() -> Check:
    """The [11, 6, 5] code, its signed columns, and coset graph = Cayley graph."""
    code = code_from_parity_check(parity_check_H())
    s2 = connection_set_S2()
    checks = {
        "dimension": code.dimension,
        "codewords": len(code),
        "minimum_distance": code.minimum_distance(),
        "signed_columns": len(s2),
        "pair_sums_cover": pair_sums_cover(s2),
        "coset_graph_matches_cayley": coset_graph(code) == cayley(s2),
    }
    ok = (
        checks["dimension"] == 6
        and checks["codewords"] == 729
        and checks["minimum_distance"] == 5
        and checks["signed_columns"] == 22
        and checks["pair_sums_cover"]
        and checks["coset_graph_matches_cayley"]
    )
    return {"type": "golay", **checks}, ok


def aut_check(
    g: Graph,
    seeds: list[Permutation],
    expected: int | None,
    node_budget: int,
    time_budget: float,
    seed_order: int = 1,
) -> Check:
    """|Aut(g)| by seeded search, checked against the expected order;
    seed_order is the order of the group the seeds generate.

    A finished search passes when its order equals expected (or when none is
    known). A search stopped by its budget reports its certified lower bound,
    which is at least seed_order; that passes only when it equals the
    expected order, so an unknown order always fails.
    """
    try:
        result = automorphism_group(g, seeds, node_budget, time_budget, seed_order)
    except SearchBudgetError as exc:
        cert = {
            "type": "aut",
            "graph": g.label,
            "lower_bound_only": True,
            "lower_bound": exc.lower_bound,
            "nodes_searched": exc.nodes,
            "expected_order": expected,
        }
        return cert, exc.lower_bound == expected
    cert = result.to_json()
    cert.update(
        type="aut", graph=g.label, lower_bound_only=False, expected_order=expected
    )
    return cert, expected is None or result.order == expected


# -- stages --------------------------------------------------------------------


@dataclass
class _Context:
    """What the stages of one run share: the config, S1, S2 and built objects."""

    config: PipelineConfig
    s1: ConnectionSet
    s2: ConnectionSet
    objects: dict[str, Any] = field(default_factory=dict)

    def need(self, key: str) -> Any:
        if key not in self.objects:
            raise RuntimeError(f"stage input {key!r} unavailable (earlier failure)")
        return self.objects[key]


def _keep(ctx: _Context, key: str, obj: Any, check: Check) -> Check:
    """Keep obj for later stages only when its own check passed."""
    if check[1]:
        ctx.objects[key] = obj
    return check


def _build(ctx: _Context, key: str, connection_set: ConnectionSet) -> Check:
    g = cayley(connection_set, label=key)
    return _keep(ctx, key, g, (graph_summary(g), g.v == 243 and g.is_regular()))


def _srg(ctx: _Context, key: str) -> Check:
    cert = certify_srg(ctx.need(key))
    return cert.to_json(), cert.passed and cert.parameters == GAMMA_SRG


def _orbit_sizes(ctx: _Context) -> Check:
    labels = m11_orbit_labels()
    # the orbit of (1,0,0,0,0), vertex 1, and of the first vertex outside it
    # but vertex 0, the zero vector, which is an orbit of its own
    first = labels == labels[1]
    second = labels == labels[np.flatnonzero(~first)[1]]
    sizes = sorted((int(first.sum()), int(second.sum())))
    matches = np.array_equal(np.flatnonzero(first), ctx.s1.indices)
    cert = {"type": "orbits", "sizes": sizes, "matches_connection_set": matches}
    return cert, sizes == [22, 220] and matches


def _involution_sweep(ctx: _Context) -> Check:
    sweep = [(g, n, p) for g in ("gamma", "gamma-s2") for n, p in involutions_for(g).items()]
    rows = []
    passed = True
    for graph_name, inv_name, perm in sweep:
        row, ok = involution_row(ctx.need(graph_name), perm)
        rows.append({"graph": graph_name, "involution": inv_name, **row})
        passed = passed and ok
    ctx.objects["sweep-rows"] = rows
    return {"type": "involution-sweep", "rows": rows}, passed


def _theorem_representatives(ctx: _Context) -> Check:
    rows = ctx.need("sweep-rows")
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
    return {"type": "theorem-representatives", **checks}, all(checks.values())


def _deza(
    ctx: _Context,
    key: str,
    expected: tuple[int, int, int, int],
    g: Graph,
    unit_beta: bool = False,
) -> Check:
    """Certify g strictly Deza with `expected`; keep it as ctx.objects[key] if so."""
    cert = certify_deza(g)
    ok = cert.passed and (cert.v, cert.k, cert.b, cert.a) == expected and cert.strict
    if unit_beta:
        ok = ok and cert.beta_min == 1 and cert.beta_max == 1
    return _keep(ctx, key, g, (cert.to_json(), ok))


def _spectrum(
    ctx: _Context, key: str, pairs: tuple, differs_from: tuple | None = None
) -> Check:
    cert = certify_spectrum(ctx.need(key), SpectrumClaim.from_pairs(pairs))
    out = cert.to_json()
    if differs_from is None:
        return out, cert.passed
    differs = sorted(pairs) != sorted(differs_from)
    out["differs_from_gamma_k2"] = differs
    return out, cert.passed and differs


def _lift(ctx: _Context) -> Check:
    lifted = lifted_switching_involution()
    row, ok = involution_row(ctx.need("gamma-k2"), lifted)
    ok = ok and row.get("adjacent_swaps") == 0 and row.get("fixed") == 54
    return _keep(ctx, "lifted", lifted, ({"type": "lifted-involution", **row}, ok))


def _ddg(ctx: _Context, key: str) -> Check:
    cert = certify_ddg(ctx.need(key))
    ok = cert.passed and (cert.m, cert.n, cert.lambda1, cert.lambda2) == DDG_PARAMS
    return cert.to_json(), ok


def _subgroup_orders(ctx: _Context) -> Check:
    gamma = ctx.need("gamma")
    pair = [perm_from_matrix(M11_GEN_A), perm_from_matrix(M11_GEN_B)]
    for perm in pair + known_generators("gamma"):
        check_automorphism(gamma, perm)
    # the seeds are affine maps, so their orders need no stabilizer chain
    two_gen = len(matrix_group())
    full = seed_order("gamma")
    cert = {
        "type": "subgroup-orders",
        "matrix_generators_order": two_gen,
        "full_seed_order": full,
    }
    return cert, two_gen == M11_ORDER and full == AUT_ORDERS["gamma"]


def _aut(ctx: _Context, key: str) -> Check:
    cfg = ctx.config
    return aut_check(ctx.need(key), known_generators(key), AUT_ORDERS[key],
                     cfg.aut_node_budget, cfg.aut_time_budget,
                     seed_order(key))


def _stage_table(ctx: _Context) -> list[tuple[str, dict[str, Any], StageFn]]:
    """Every stage of the run, in report order, as (name, inputs, fn)."""
    k2_switch = {"graph": "gamma-k2", "involution": "lifted-switching"}
    return [
        ("build-gamma", {"graph": "gamma", "connection_set_size": len(ctx.s1)},
         partial(_build, key="gamma", connection_set=ctx.s1)),
        ("build-gamma-s2", {"graph": "gamma-s2", "connection_set_size": len(ctx.s2)},
         partial(_build, key="gamma-s2", connection_set=ctx.s2)),
        *((f"certify-srg-{key}", {"graph": key, "expected_parameters": list(GAMMA_SRG)},
           partial(_srg, key=key)) for key in ("gamma", "gamma-s2")),
        ("linear-isomorphism", {"source": "s1", "target": "s2"},
         lambda c: linear_isomorphism(c.s1, c.s2)),
        ("orbit-sizes", {"generators": 2, "seed": [1, 0, 0, 0, 0]}, _orbit_sizes),
        ("involution-sweep", {"graphs": ["gamma", "gamma-s2"]}, _involution_sweep),
        ("theorem-representatives",
         {"representatives": ["negation", "switching", "negated-switching"]},
         _theorem_representatives),
        ("switch-delta",
         {"graph": "gamma", "involution": "switching", "expected": list(DELTA_DEZA)},
         lambda c: _deza(c, "delta", DELTA_DEZA, dual_seidel_switch(
             c.need("gamma"), switching_involution(), label="delta"))),
        ("spectrum-delta", {"graph": "delta", "claim": [list(p) for p in DELTA_SPECTRUM]},
         partial(_spectrum, key="delta", pairs=DELTA_SPECTRUM)),
        ("product-gamma-k2", {"graph": "gamma", "expected": list(PRODUCT_DEZA)},
         lambda c: _deza(c, "gamma-k2", PRODUCT_DEZA, strong_product_K2(
             c.need("gamma"), label="gamma-k2"), unit_beta=True)),
        ("spectrum-gamma-k2",
         {"graph": "gamma-k2", "claim": [list(p) for p in GAMMA_K2_SPECTRUM]},
         partial(_spectrum, key="gamma-k2", pairs=GAMMA_K2_SPECTRUM)),
        ("lift-involution", k2_switch, _lift),
        ("switch-delta-k2", {**k2_switch, "expected": list(PRODUCT_DEZA)},
         lambda c: _deza(c, "delta-k2", PRODUCT_DEZA, dual_seidel_switch(
             c.need("gamma-k2"), c.need("lifted"), label="delta-k2"))),
        ("spectrum-delta-k2",
         {"graph": "delta-k2", "claim": [list(p) for p in DELTA_K2_SPECTRUM]},
         partial(_spectrum, key="delta-k2", pairs=DELTA_K2_SPECTRUM,
                 differs_from=GAMMA_K2_SPECTRUM)),
        *((f"ddg-{key}", {"graph": key, "expected": list(DDG_PARAMS)},
           partial(_ddg, key=key)) for key in ("gamma-k2", "delta-k2")),
        ("subgroup-orders",
         {"graph": "gamma", "expected": [M11_ORDER, AUT_ORDERS["gamma"]]},
         _subgroup_orders),
        *((f"aut-{key}", {"graph": key, "seeded": True}, partial(_aut, key=key))
          for key in ("delta", "gamma") if ctx.config.deep),
        ("golay-code", {"code": "ternary-golay"}, lambda c: golay_checks()),
    ]


def run_pipeline(config: PipelineConfig | None = None) -> Report:
    """Execute every stage in order and return the full report."""
    cfg = config or PipelineConfig()
    s1 = cfg.s1_override if cfg.s1_override is not None else connection_set_s1()
    ctx = _Context(cfg, s1, connection_set_S2())
    report = Report(config=cfg)
    for name, inputs, fn in _stage_table(ctx):
        start = time.monotonic()
        try:
            certificate, passed = fn(ctx)
        except Exception as exc:  # stage isolation: a failure must not end the run
            certificate, passed = (
                {"type": "error", "error": type(exc).__name__, "message": str(exc)},
                False,
            )
        report.stages.append(
            StageResult(name, inputs, certificate, passed, time.monotonic() - start)
        )
    return report
