"""Independent checks of every verdict the benchmark collects.

Each check takes the program's exit code and standard output for one
verdict and raises `Wrong` unless the answer is right. Expected values come
from `gen` (closed forms and the paper's constants); every witness in an
answer (generators, partitions, failing pairs, isomorphism matrices) is
re-checked here against the benchmark's own copy of the graph, with numpy
float products that are exact at these sizes (entries stay below 2^53).
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

import gen


class Wrong(Exception):
    """The program's answer is not the right one; the message says why."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def _load(out: str) -> dict:
    try:
        return json.loads(out)
    except ValueError as exc:
        raise Wrong(f"output is not JSON: {out[:80]!r}") from exc


def common_neighbours(adj: np.ndarray) -> np.ndarray:
    a = adj.astype(np.float64)
    return (a @ a).astype(np.int64)


def eigen_oracle(e: gen.Expected, tol: float = 1e-6) -> None:
    """Compare a closed-form spectrum with numpy.linalg.eigvalsh (v <= 100).

    eigvalsh is an outside oracle only: an eigenvalue counts as the integer
    it rounds to when it lies within `tol` of it. A spectrum given as None
    (irrational) must show an eigenvalue farther than `tol` from every
    integer. Raises RuntimeError, since a mismatch is a fault of the
    benchmark's own data, not of the program.
    """
    if e.adj.shape[0] > 100:
        return
    values = np.linalg.eigvalsh(e.adj.astype(np.float64))
    rounded = np.round(values)
    integral = bool(np.abs(values - rounded).max() < tol)
    if e.spectrum is None:
        if integral:
            raise RuntimeError(f"{e.name}: eigvalsh finds an integral spectrum")
        return
    found = Counter(int(x) for x in rounded)
    if not integral or found != Counter(dict(e.spectrum)):
        raise RuntimeError(f"{e.name}: eigvalsh disagrees with the closed form {e.spectrum}")


def moments(spectrum) -> list[int]:
    return [sum(m * t**j for t, m in spectrum) for j in range(len(spectrum))]


# -- single-graph subcommands -------------------------------------------------


def check_aut(e: gen.Expected, code, out: str) -> None:
    expect(code == 0, f"aut exit {code}")
    d = _load(out)
    expect(d.get("pass") is True and d.get("lower_bound_only") is False, "aut did not finish")
    expect(d["order"] == e.aut_order, f"|Aut| = {d['order']}, expected {e.aut_order}")
    gens = d["generators"]
    expect(len(gens) == d["generator_count"], "generator_count disagrees with the list")
    v = e.adj.shape[0]
    for g in gens:
        p = np.asarray(g, dtype=np.int64)
        expect(p.shape == (v,) and (np.sort(p) == np.arange(v)).all(), "generator is not a permutation")
        expect((e.adj[np.ix_(p, p)] == e.adj).all(), "generator is not an automorphism")


def check_srg(e: gen.Expected, code, out: str) -> None:
    d = _load(out)
    params = d["parameters"]
    if e.srg is None:
        expect(code == 1 and d["pass"] is False, "certify-srg passed a graph that is not strongly regular")
        a2 = common_neighbours(e.adj)
        checked = 0
        for key in ("adjacent", "nonadjacent"):
            pairs = d["witnesses"].get(key)
            if pairs is None:
                continue
            expect(len(pairs) == 2, f"{key} witness needs two pairs")
            for p in pairs:
                u, w = p["u"], p["w"]
                expect(u != w, "witness pair repeats a vertex")
                expect(bool(e.adj[u, w]) == (key == "adjacent"), f"{key} witness ({u}, {w}) has the wrong adjacency")
                expect(a2[u, w] == p["common"], f"witness ({u}, {w}) states {p['common']} common neighbours, not {a2[u, w]}")
            expect(pairs[0]["common"] != pairs[1]["common"], f"{key} witness pairs do not differ")
            checked += 1
        expect(checked > 0, "failure carries no witness pairs")
        return
    expect(code == 0 and d["pass"] is True, f"certify-srg exit {code}")
    got = (params["v"], params["k"], params["lambda"], params["mu"])
    expect(got == e.srg, f"SRG parameters {got}, expected {e.srg}")
    if e.spectrum is None:
        want = (None, None, None, None)
    else:
        (_, _), (r, f), (s, g) = e.spectrum
        want = (r, s, f, g)
    got = (params["r"], params["s"], params["multiplicity_r"], params["multiplicity_s"])
    expect(got == want, f"eigenvalues and multiplicities {got}, expected {want}")


def deza_facts(adj: np.ndarray) -> dict:
    """Deza parameters, b-partner counts and diameter-2 flag from A^2."""
    v = adj.shape[0]
    a2 = common_neighbours(adj)
    off = ~np.eye(v, dtype=bool)
    values = np.unique(a2[off])
    b, a = int(values.max()), int(values.min())
    beta = (off & (a2 == b)).sum(axis=1)
    reach = adj | (a2 > 0) | ~off
    return {
        "k": int(adj[0].sum()),
        "values": len(values),
        "b": b,
        "a": a,
        "beta_min": int(beta.min()),
        "beta_max": int(beta.max()),
        "diameter_2": bool(reach.all()) and not bool(adj[off].all()),
    }


def check_deza_certificate(e: gen.Expected, cert: dict) -> None:
    f = deza_facts(e.adj)
    p = cert["parameters"]
    expect(cert["pass"] is True, "Deza certificate failed")
    got = (p["v"], p["k"], p["b"], p["a"])
    expect(got == e.deza, f"Deza parameters {got}, expected {e.deza}")
    expect(f["values"] <= 2 and (f["k"], f["b"], f["a"]) == e.deza[1:], "benchmark graph disagrees with its claim")
    expect((p["beta_min"], p["beta_max"]) == (f["beta_min"], f["beta_max"]), "beta range is wrong")
    expect((p["diameter"] == 2) == f["diameter_2"], f"diameter {p['diameter']} is wrong")
    expect(p["strict"] is e.strict, f"strict = {p['strict']}, expected {e.strict}")


def check_deza(e: gen.Expected, code, out: str) -> None:
    expect(code == 0, f"certify-deza exit {code}")
    check_deza_certificate(e, _load(out))


def check_ddg_certificate(e: gen.Expected, cert: dict) -> None:
    expect(cert["pass"] is True, "DDG certificate failed")
    p = cert["parameters"]
    m, n, lam1, lam2 = e.ddg_params
    v = e.adj.shape[0]
    got = (p["v"], p["m"], p["n"], p["lambda1"], p["lambda2"])
    expect(got == (v, m, n, lam1, lam2), f"DDG parameters {got}, expected {(v, *e.ddg_params)}")
    classes = cert["partition"]
    expect(len(classes) == m and all(len(c) == n for c in classes), "partition has the wrong class sizes")
    members = sorted(u for c in classes for u in c)
    expect(members == list(range(v)), "partition does not cover each vertex once")
    cls_of = np.empty(v, dtype=np.int64)
    for i, c in enumerate(classes):
        cls_of[c] = i
    a2 = common_neighbours(e.adj)
    same = cls_of[:, None] == cls_of[None, :]
    off = ~np.eye(v, dtype=bool)
    expect((a2[same & off] == lam1).all(), f"a within-class pair does not have {lam1} common neighbours")
    expect((a2[~same] == lam2).all(), f"a cross-class pair does not have {lam2} common neighbours")


def check_ddg(e: gen.Expected, code, out: str) -> None:
    expect(code == 0, f"certify-ddg exit {code}")
    check_ddg_certificate(e, _load(out))


def check_spectrum(e: gen.Expected, code, out: str) -> None:
    d = _load(out)
    if e.spectrum is None:
        expect(code == 1 and d["pass"] is False and d["discovered"] is None,
               "an irrational spectrum was reported as integral")
        return
    expect(code == 0 and d["pass"] is True, f"spectrum discovery exit {code}: {d.get('detail')}")
    got = sorted(tuple(p) for p in d["discovered"])
    expect(got == sorted(e.spectrum), f"discovered {got}, expected {sorted(e.spectrum)}")


def check_spectrum_certificate(spectrum, cert: dict) -> None:
    expect(cert["pass"] is True and cert["annihilation"] is True, "spectrum certificate failed")
    expect(cert["eigenvalues"] == [t for t, _ in spectrum], "eigenvalues differ from the claim")
    expect(cert["multiplicities"] == [m for _, m in spectrum], "multiplicities differ from the claim")
    expect(cert["moments"] == moments(spectrum), "power traces disagree with the spectrum")


def check_claim(e: gen.Expected, code, out: str) -> None:
    expect(code == 0, f"spectrum --claim exit {code}")
    check_spectrum_certificate(e.spectrum, _load(out))


def check_export(data: bytes, code, out: str) -> None:
    expect(code == 0, f"export exit {code}")
    expect(out.encode() == data, "graph6 export differs from the independent encoding")


def claim_text(spectrum) -> str:
    return ",".join(f"{t}:{m}" for t, m in spectrum)


# -- the paper run --------------------------------------------------------------

PAPER_STAGES = (
    "build-gamma", "build-gamma-s2", "certify-srg-gamma", "certify-srg-gamma-s2",
    "linear-isomorphism", "orbit-sizes", "involution-sweep", "theorem-representatives",
    "switch-delta", "spectrum-delta", "product-gamma-k2", "spectrum-gamma-k2",
    "lift-involution", "switch-delta-k2", "spectrum-delta-k2", "ddg-gamma-k2",
    "ddg-delta-k2", "subgroup-orders", "aut-delta", "aut-gamma", "golay-code",
)


def involution_counts(adj: np.ndarray, images: np.ndarray) -> dict:
    """Fixed points and adjacent / non-adjacent 2-cycles of an involution."""
    v = adj.shape[0]
    u = np.arange(v)
    moved = images > u
    return {
        "is_automorphism": bool((adj[np.ix_(images, images)] == adj).all()),
        "is_involution": bool((images[images] == u).all() and (images != u).any()),
        "fixed": int((images == u).sum()),
        "adjacent_swaps": int(adj[u[moved], images[moved]].sum()),
        "nonadjacent_swaps": int((~adj[u[moved], images[moved]]).sum()),
    }


class PaperContext:
    """The benchmark's own copies of everything `dezaforge run --deep` claims."""

    def __init__(self) -> None:
        graphs = {e.name: e for e in gen.paper_graphs()}
        self.graphs = graphs
        self.s1 = gen.connection_s1()
        self.s2 = gen.connection_s2()
        sigma = graphs["delta"].extra["sigma"]
        m = gen.switching_matrix()
        nonzero = {tuple(int(c) for c in x) for x in gen.VECTORS if x.any()}
        sizes = []
        while nonzero:
            orb = gen.orbit([gen.ATLAS_A, gen.ATLAS_B], min(nonzero))
            sizes.append(len(orb))
            nonzero -= orb
        self.orbit_sizes = sorted(sizes)
        gamma, gamma_s2 = graphs["gamma"].adj, graphs["gamma-s2"].adj
        reversal = gen.vector_index(gen.VECTORS[:, ::-1])
        self.sweep = [
            ("gamma", "negation", involution_counts(gamma, gen.matrix_perm(2 * np.eye(5, dtype=np.int64)))),
            ("gamma", "switching", involution_counts(gamma, sigma)),
            ("gamma", "negated-switching", involution_counts(gamma, gen.matrix_perm(2 * m % 3))),
            ("gamma-s2", "reversal", involution_counts(gamma_s2, reversal)),
        ]
        self.lift = involution_counts(graphs["gamma-k2"].adj, gen.lift(sigma))


def check_paper(ctx: PaperContext, code, out: str) -> None:
    expect(code == 0, f"run --deep exit {code}")
    d = _load(out)
    stages = {s["name"]: s for s in d["stages"]}
    expect(tuple(stages) == PAPER_STAGES, f"stages {list(stages)}")
    failed = [name for name, s in stages.items() if s["pass"] is not True]
    expect(not failed and d["overall_pass"] is True, f"failing stages {failed}")
    cert = {name: s["certificate"] for name, s in stages.items()}
    g = ctx.graphs

    for name in ("gamma", "gamma-s2"):
        b = cert[f"build-{name}"]
        adj = g[name].adj
        expect((b["vertices"], b["edges"], b["degree"]) == (243, int(adj.sum()) // 2, 22), f"build-{name}")
        check_srg(g[name], 0, json.dumps(cert[f"certify-srg-{name}"]))

    iso = np.asarray(cert["linear-isomorphism"]["matrix"], dtype=np.int64)
    image = {tuple(int(c) for c in np.asarray(x) @ iso % 3) for x in ctx.s1}
    expect(image == ctx.s2, "the isomorphism matrix does not map S1 onto S2")
    expect(cert["orbit-sizes"]["sizes"] == ctx.orbit_sizes, "orbit sizes are wrong")

    rows = cert["involution-sweep"]["rows"]
    expect(len(rows) == len(ctx.sweep), "involution sweep has the wrong rows")
    for row, (graph, name, counts) in zip(rows, ctx.sweep):
        expect((row["graph"], row["involution"]) == (graph, name), f"sweep row {row['involution']}")
        expect(all(row[k] == v for k, v in counts.items()), f"sweep counts for {name} are wrong")
    expect(all(v is True for k, v in cert["theorem-representatives"].items() if k != "type"),
           "a theorem-representatives claim is false")

    check_deza_certificate(g["delta"], cert["switch-delta"])
    check_deza_certificate(g["gamma-k2"], cert["product-gamma-k2"])
    check_deza_certificate(g["delta-k2"], cert["switch-delta-k2"])
    lift = cert["lift-involution"]
    expect(all(lift[k] == v for k, v in ctx.lift.items()), "lifted involution counts are wrong")

    check_spectrum_certificate(gen.DELTA_SPECTRUM, cert["spectrum-delta"])
    check_spectrum_certificate(gen.GAMMA_K2_SPECTRUM, cert["spectrum-gamma-k2"])
    check_spectrum_certificate(gen.DELTA_K2_SPECTRUM, cert["spectrum-delta-k2"])
    expect(cert["spectrum-delta-k2"].get("differs_from_gamma_k2") is True, "the K2 spectra are not told apart")
    check_ddg_certificate(g["gamma-k2"], cert["ddg-gamma-k2"])
    check_ddg_certificate(g["delta-k2"], cert["ddg-delta-k2"])

    sub = cert["subgroup-orders"]
    expect((sub["matrix_generators_order"], sub["full_seed_order"]) == (gen.M11_ORDER, gen.GAMMA_AUT),
           "subgroup orders are wrong")
    for name in ("delta", "gamma"):
        aut = dict(cert[f"aut-{name}"], **{"pass": True})
        check_aut(g[name], 0, json.dumps(aut))

    golay = cert["golay-code"]
    want = {"dimension": 6, "codewords": 729, "minimum_distance": 5, "signed_columns": len(ctx.s2),
            "pair_sums_cover": True, "coset_graph_matches_cayley": True}
    expect(all(golay[k] == v for k, v in want.items()), "Golay code claims are wrong")
