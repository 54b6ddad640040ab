"""Command-line interface.

`dezaforge run` executes the whole certification pipeline and prints one
JSON report; the remaining subcommands expose individual stages on named
graphs or external graph6 files. Exit codes: 0 when every emitted
certificate passes, 1 when a certification fails, 2 for usage or parse
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from pathlib import Path
from typing import Any, Sequence

from .autiso import NODE_BUDGET, TIME_BUDGET, VERTEX_CEILING
from .catalog import (
    AUT_ORDERS,
    GRAPH_NAMES,
    build_graph,
    connection_set_s1,
    involutions_for,
    known_generators,
    seed_order,
)
from .certify import certify_ddg, certify_deza, certify_srg
from .golay import connection_set_S2
from .graphcore import (
    Graph,
    Graph6ParseError,
    SwitchingInapplicableError,
    dual_seidel_switch,
    from_graph6,
    involution_pair_counts,
    strong_product_K2,
    to_edge_list,
    to_graph6,
)
from .pipeline import (
    PipelineConfig,
    aut_check,
    golay_checks,
    graph_summary,
    involution_row,
    linear_isomorphism,
    run_pipeline,
)
from .spectra import InconsistentClaimError, SpectrumClaim, certify_spectrum, discover_spectrum

CONNECTION_SETS = {"s1": connection_set_s1, "s2": connection_set_S2}


class UsageError(Exception):
    """Bad graph name, file, or flag value; maps to exit code 2."""


def _load_graph(arg: str) -> Graph:
    if arg in GRAPH_NAMES:
        return build_graph(arg)
    path = Path(arg)
    if path.is_file():
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise UsageError(f"cannot read graph file {arg!r}: {exc}") from exc
        # one character per byte: a non-ASCII byte fails parsing at its offset
        return from_graph6(data.decode("latin-1"), label=path.stem)
    raise UsageError(f"unknown graph name or file: {arg!r}")


def _emit(payload: Any, out: str | None) -> None:
    if isinstance(payload, str):
        text = payload if payload.endswith("\n") else payload + "\n"
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _check_budgets(args: argparse.Namespace) -> None:
    """Refuse a negative node budget and a negative or non-finite time budget."""
    if args.node_budget < 0:
        raise UsageError(f"--node-budget must be at least 0, got {args.node_budget}")
    if not (math.isfinite(args.time_budget) and args.time_budget >= 0):
        raise UsageError(
            f"--time-budget must be a finite number of seconds, at least 0, "
            f"got {args.time_budget}"
        )


def _cmd_run(args: argparse.Namespace) -> tuple[Any, int]:
    _check_budgets(args)
    config = PipelineConfig(
        deep=args.deep,
        aut_node_budget=args.node_budget,
        aut_time_budget=args.time_budget,
    )
    report = run_pipeline(config)
    return report.to_json(), 0 if report.overall_pass else 1


def _cmd_build(args: argparse.Namespace) -> tuple[Any, int]:
    return graph_summary(_load_graph(args.graph)), 0


def _cmd_certify(args: argparse.Namespace) -> tuple[Any, int]:
    # looked up at each call, not when the cached parser was built, so a
    # wrapper installed over these module names later is the one that runs
    certify = {
        "certify-srg": certify_srg,
        "certify-deza": certify_deza,
        "certify-ddg": certify_ddg,
    }[args.command]
    cert = certify(_load_graph(args.graph))
    return cert.to_json(), 0 if cert.passed else 1


def _cmd_spectrum(args: argparse.Namespace) -> tuple[Any, int]:
    g = _load_graph(args.graph)
    if args.claim is not None:
        try:
            claim = SpectrumClaim.parse(args.claim)
        except ValueError as exc:
            raise UsageError(f"bad --claim: {exc}") from exc
        cert = certify_spectrum(g, claim)
        return cert.to_json(), 0 if cert.passed else 1
    try:
        found = discover_spectrum(g)
    except InconsistentClaimError as exc:
        payload = {
            "type": "spectrum",
            "graph": g.label,
            "discovered": None,
            "detail": str(exc),
            "pass": False,
        }
        return payload, 1
    payload = {
        "type": "spectrum",
        "graph": g.label,
        "discovered": [[theta, mult] for theta, mult in found.pairs],
        "pass": True,
    }
    return payload, 0


def _cmd_involutions(args: argparse.Namespace) -> tuple[Any, int]:
    name = args.graph
    if name not in GRAPH_NAMES:
        raise UsageError(f"involutions requires a named graph, got {name!r}")
    g = build_graph(name)
    rows = []
    ok = True
    for inv_name, perm in involutions_for(name).items():
        row, row_ok = involution_row(g, perm)
        rows.append({"involution": inv_name, **row})
        ok = ok and row_ok
    return {"type": "involutions", "graph": name, "rows": rows, "pass": ok}, (
        0 if ok else 1
    )


def _pick_involution(name: str, requested: str | None):
    registry = involutions_for(name)
    if not registry:
        raise UsageError(f"graph {name!r} has no registered involution")
    if requested is None:
        # every registry holds switching or a single entry
        requested = "switching" if "switching" in registry else next(iter(registry))
    if requested not in registry:
        raise UsageError(
            f"graph {name!r} has no involution {requested!r};"
            f" available: {sorted(registry)}"
        )
    return requested, registry[requested]


def _cmd_switch(args: argparse.Namespace) -> tuple[Any, int]:
    name = args.graph
    if name not in GRAPH_NAMES:
        raise UsageError(f"switch requires a named graph, got {name!r}")
    g = build_graph(name)
    inv_name, perm = _pick_involution(name, args.involution)
    payload = {"type": "switch", "graph": name, "involution": inv_name}
    try:
        switched = dual_seidel_switch(g, perm, label=f"{name}-switched")
    except SwitchingInapplicableError as exc:
        return {**payload, "detail": str(exc), "pass": False}, 1
    payload["classification"] = involution_pair_counts(g, perm)
    return {**payload, "result": graph_summary(switched), "pass": True}, 0


def _cmd_product(args: argparse.Namespace) -> tuple[Any, int]:
    g = _load_graph(args.graph)
    label = f"{g.label or 'graph'}-k2"
    return graph_summary(strong_product_K2(g, label=label)), 0


def _cmd_aut(args: argparse.Namespace) -> tuple[Any, int]:
    _check_budgets(args)
    g = _load_graph(args.graph)
    if g.v > VERTEX_CEILING:
        raise UsageError(
            f"graph has {g.v} vertices, above the ceiling {VERTEX_CEILING}"
        )
    payload, ok = aut_check(
        g,
        known_generators(args.graph),
        AUT_ORDERS.get(args.graph),
        args.node_budget,
        args.time_budget,
        seed_order(args.graph),
    )
    payload["pass"] = ok
    return payload, 0 if ok else 1


def _cmd_iso(args: argparse.Namespace) -> tuple[Any, int]:
    try:
        source = CONNECTION_SETS[args.source.lower()]()
        target = CONNECTION_SETS[args.target.lower()]()
    except KeyError as exc:
        raise UsageError(
            f"unknown connection set {exc.args[0]!r}; choose from s1, s2"
        ) from exc
    payload, ok = linear_isomorphism(source, target)
    payload["type"] = "iso"
    payload["pass"] = ok
    return payload, 0 if ok else 1


def _cmd_golay(args: argparse.Namespace) -> tuple[Any, int]:
    payload, ok = golay_checks()
    payload["pass"] = ok
    return payload, 0 if ok else 1


def _cmd_export(args: argparse.Namespace) -> tuple[Any, int]:
    g = _load_graph(args.graph)
    if args.format == "graph6":
        return to_graph6(g), 0
    if args.format == "edgelist":
        return to_edge_list(g), 0
    payload = {
        "label": g.label,
        "vertices": g.v,
        "edges": [[u, w] for u, w in g.edges()],
    }
    return payload, 0


def _add_graph_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph", help="named graph or path to a graph6 file")


def _add_budgets(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--node-budget", type=int, default=NODE_BUDGET)
    sub.add_argument("--time-budget", type=float, default=TIME_BUDGET)


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first main call and kept."""
    parser = argparse.ArgumentParser(
        prog="dezaforge",
        description="Exact certificates for the (243,22,1,2) family and its "
        "switched and K2-product Deza graphs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="full pipeline, one JSON report")
    run.add_argument("--deep", action="store_true", help="also compute exact Aut orders")
    _add_budgets(run)
    run.set_defaults(handler=_cmd_run)

    build = subs.add_parser("build", help="construct a graph and print its summary")
    _add_graph_arg(build)
    build.set_defaults(handler=_cmd_build)

    for cmd in ("certify-srg", "certify-deza", "certify-ddg"):
        sub = subs.add_parser(cmd, help=f"{cmd.split('-')[1]} certificate")
        _add_graph_arg(sub)
        sub.set_defaults(handler=_cmd_certify)

    spectrum = subs.add_parser("spectrum", help="certify a claimed spectrum or discover one")
    _add_graph_arg(spectrum)
    spectrum.add_argument(
        "--claim", metavar="CLAIM", help='eigenvalue:multiplicity list, e.g. "22:1,4:132,-5:110"'
    )
    spectrum.set_defaults(handler=_cmd_spectrum)

    involutions = subs.add_parser("involutions", help="classify registered involutions")
    _add_graph_arg(involutions)
    involutions.set_defaults(handler=_cmd_involutions)

    switch = subs.add_parser("switch", help="dual Seidel switch by a registered involution")
    _add_graph_arg(switch)
    switch.add_argument("--involution", metavar="NAME")
    switch.set_defaults(handler=_cmd_switch)

    product = subs.add_parser("product", help="strong product with K2")
    _add_graph_arg(product)
    product.set_defaults(handler=_cmd_product)

    aut = subs.add_parser("aut", help="automorphism group order by seeded refinement search")
    _add_graph_arg(aut)
    _add_budgets(aut)
    aut.set_defaults(handler=_cmd_aut)

    iso = subs.add_parser("iso", help="linear isomorphism between connection sets")
    iso.add_argument("source", help="s1 or s2")
    iso.add_argument("target", help="s1 or s2")
    iso.set_defaults(handler=_cmd_iso)

    golay = subs.add_parser("golay", help="ternary Golay code checks")
    golay.set_defaults(handler=_cmd_golay)

    export = subs.add_parser("export", help="serialize a graph")
    _add_graph_arg(export)
    export.add_argument(
        "--format", choices=("json", "graph6", "edgelist"), default="json"
    )
    export.set_defaults(handler=_cmd_export)

    for sub in subs.choices.values():  # every subcommand ends with --out
        sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):
            # refuse before the work, which for `run` takes the whole pipeline
            raise UsageError(
                f"cannot write --out {out!r}: not a file in an existing directory"
            )
        payload, code = args.handler(args)
        _emit(payload, out)
    except UsageError as exc:
        print(f"dezaforge: error: {exc}", file=sys.stderr)
        return 2
    except Graph6ParseError as exc:
        print(f"dezaforge: error: graph6 parse failure: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
