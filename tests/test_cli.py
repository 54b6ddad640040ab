import argparse
import importlib.metadata
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dezaforge import cli
from dezaforge.autiso import NODE_BUDGET, TIME_BUDGET, VERTEX_CEILING, automorphism_group
from dezaforge.catalog import build_graph
from dezaforge.cli import main
from dezaforge.graphcore import Graph, from_edges, to_graph6
from dezaforge.pipeline import PipelineConfig, run_pipeline


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dezaforge.cli", *args],
        capture_output=True,
        text=True,
    )


def test_build_named_graph(capsys):
    assert main(["build", "petersen"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vertices"] == 10
    assert out["edges"] == 15
    assert out["degree"] == 3


def test_certify_srg_pass(capsys):
    assert main(["certify-srg", "petersen"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert out["parameters"]["lambda"] == 0


def test_certify_srg_fail_exit_code(capsys):
    assert main(["certify-srg", "delta"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is False


def test_certify_srg_reads_a_graph6_file_with_header(tmp_path, capsys):
    nx = pytest.importorskip("networkx")
    path = tmp_path / "petersen.g6"
    nx.write_graph6(nx.petersen_graph(), str(path), header=True)
    assert path.read_text().startswith(">>graph6<<")
    assert main(["certify-srg", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["parameters"]["v"] == 10 and out["parameters"]["lambda"] == 0


def test_certify_deza_and_ddg(capsys):
    assert main(["certify-deza", "delta"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["parameters"]["strict"] is True
    assert main(["certify-ddg", "gamma-k2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["parameters"] == {"v": 486, "m": 243, "n": 2, "lambda1": 44, "lambda2": 4}


def test_second_main_call_builds_no_parser(capsys, monkeypatch):
    main(["build", "c5"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["build", "c5"]) == 0
    assert built == []


@pytest.mark.parametrize("command", ["certify-srg", "certify-deza", "certify-ddg"])
def test_certify_calls_the_module_function_at_call_time(command, capsys, monkeypatch):
    # a tracer wraps cli.certify_* after import and after the parser exists,
    # and must still see the calls
    main([command, "petersen"])
    name = command.replace("-", "_")
    calls = []
    real = getattr(cli, name)

    def traced(g):
        calls.append(g.label)
        return real(g)

    monkeypatch.setattr(cli, name, traced)
    main([command, "petersen"])
    assert calls == ["petersen"]


def test_spectrum_claim(capsys):
    assert main(["spectrum", "delta", "--claim", "22:1,5:48,4:72,-4:60,-5:62"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True


def test_spectrum_wrong_claim_fails(capsys):
    assert main(["spectrum", "petersen", "--claim", "3:1,1:4,-2:5"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["failure_stage"] == "moments"


def test_spectrum_discovery(capsys):
    assert main(["spectrum", "petersen"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["discovered"] == [[3, 1], [1, 5], [-2, 4]]


def test_spectrum_irrational_fails(capsys):
    assert main(["spectrum", "c5"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is False


def test_spectrum_malformed_claim_is_usage_error(capsys):
    assert main(["spectrum", "delta", "--claim", "nonsense"]) == 2


def test_involutions_table(capsys):
    assert main(["involutions", "gamma"]) == 0
    out = json.loads(capsys.readouterr().out)
    rows = {r["involution"]: r for r in out["rows"]}
    assert rows["switching"]["adjacent_swaps"] == 0
    assert rows["switching"]["fixed"] == 27
    assert rows["negation"]["adjacent_swaps"] == 11


def test_switch_default_involution(capsys):
    assert main(["switch", "gamma"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["involution"] == "switching"
    assert out["result"]["vertices"] == 243


def test_switch_tests_the_automorphism_once(capsys, witness_calls):
    assert main(["switch", "gamma"]) == 0
    capsys.readouterr()
    assert len(witness_calls) == 1


def test_switch_inapplicable_involution(capsys):
    assert main(["switch", "gamma", "--involution", "negation"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is False


def test_switch_unknown_involution_is_usage_error():
    assert main(["switch", "gamma", "--involution", "mystery"]) == 2


@pytest.mark.parametrize("extra", [[], ["--involution", "switching"]], ids=repr)
def test_switch_on_a_graph_without_involutions_says_so(extra, capsys):
    # delta-k2 has no registered involution, so there is nothing to choose from
    assert main(["switch", "delta-k2", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dezaforge: error: graph 'delta-k2' has no registered involution\n"
    )


def test_product(capsys):
    assert main(["product", "c5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vertices"] == 10
    assert out["degree"] == 5


def test_aut_named_graph(capsys):
    assert main(["aut", "petersen"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 120
    assert out["lower_bound_only"] is False


def test_aut_budget_soft_pass(capsys):
    assert main(["aut", "delta", "--node-budget", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lower_bound_only"] is True
    assert out["lower_bound"] == 2592


@pytest.mark.parametrize("name", ["gamma", "delta"])
def test_aut_proofs_agree_on_relabelled_files(name, tmp_path, capsys):
    # `aut NAME` proves |Aut| at the first leaf from the seeds' affine order;
    # a relabelled file has no seeds, so the full search proves it there
    assert main(["aut", name]) == 0
    named = json.loads(capsys.readouterr().out)
    assert named["nodes_searched"] == 6
    g = build_graph(name)
    for seed in range(3):
        perm = np.random.default_rng([37, seed]).permutation(g.v)
        adjacency = np.zeros_like(g.adjacency)
        adjacency[np.ix_(perm, perm)] = g.adjacency
        path = tmp_path / f"{name}-{seed}.g6"
        path.write_text(to_graph6(Graph(adjacency)) + "\n")
        assert main(["aut", str(path)]) == 0
        relabelled = json.loads(capsys.readouterr().out)
        assert relabelled["nodes_searched"] > 6
        for key in ("order", "orbit_count"):
            assert relabelled[key] == named[key], (seed, key)


@pytest.mark.parametrize("name, order", [("c5", 10), ("petersen", 120)])
def test_aut_budget_stop_below_known_order_fails(name, order, capsys):
    assert main(["aut", name, "--node-budget", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["lower_bound_only"] is True
    assert out["lower_bound"] < order == out["expected_order"]
    assert out["pass"] is False


def test_aut_budget_stop_on_a_file_fails(tmp_path, capsys):
    path = tmp_path / "petersen.g6"
    assert main(["export", "petersen", "--format", "graph6", "--out", str(path)]) == 0
    assert main(["aut", str(path), "--node-budget", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["lower_bound_only"] is True
    assert out["expected_order"] is None
    assert out["pass"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["aut", "gamma", "--node-budget", "-5"],
        ["aut", "gamma", "--time-budget", "-1"],
        ["aut", "gamma", "--time-budget", "nan"],
        ["aut", "gamma", "--time-budget", "inf"],
        ["run", "--node-budget", "-1"],
        ["run", "--time-budget", "-0.5"],
        ["run", "--time-budget", "nan"],
        ["run", "--time-budget", "inf"],
    ],
    ids=" ".join,
)
def test_invalid_budget_is_usage_error(argv, capsys):
    # a negative budget used to pass after 0 nodes, nan turned the time
    # budget off, and `run` printed NaN or Infinity, which is not JSON
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err


def test_every_caller_shares_one_search_budget():
    library = inspect.signature(automorphism_group).parameters
    budgets = {
        "automorphism_group": (
            library["node_budget"].default,
            library["time_budget"].default,
        ),
        "PipelineConfig": (
            PipelineConfig().aut_node_budget,
            PipelineConfig().aut_time_budget,
        ),
    }
    for argv in (["run"], ["aut", "c5"]):
        args = cli._build_parser().parse_args(argv)
        budgets[argv[0]] = (args.node_budget, args.time_budget)
    assert set(budgets.values()) == {(NODE_BUDGET, TIME_BUDGET)}


def test_zero_budgets_are_legal(capsys):
    assert main(["aut", "delta", "--node-budget", "0", "--time-budget", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lower_bound_only"] is True
    assert out["nodes_searched"] == 0


def test_iso(capsys):
    assert main(["iso", "s1", "s2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verified"] is True
    assert len(out["matrix"]) == 5


def test_iso_unknown_set_is_usage_error():
    assert main(["iso", "s1", "s9"]) == 2


def test_golay(capsys):
    assert main(["golay"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["minimum_distance"] == 5
    assert out["coset_graph_matches_cayley"] is True


@pytest.fixture(scope="module")
def shallow_certificates():
    return {s.name: s.certificate for s in run_pipeline(PipelineConfig()).stages}


def without_labels(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in ("type", "graph", "pass")}


@pytest.mark.parametrize(
    "argv, stage",
    [
        (["golay"], "golay-code"),
        (["iso", "s1", "s2"], "linear-isomorphism"),
        (["involutions", "gamma"], "involution-sweep"),
    ],
)
def test_cli_payload_matches_pipeline_stage(argv, stage, shallow_certificates, capsys):
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    cert = json.loads(json.dumps(shallow_certificates[stage]))
    if stage == "involution-sweep":
        # the sweep also holds the gamma-s2 reversal row, and names each row's graph
        cert["rows"] = [without_labels(r) for r in cert["rows"] if r["graph"] == "gamma"]
    assert without_labels(payload) == without_labels(cert)


def test_export_formats(tmp_path, capsys):
    assert main(["export", "petersen", "--format", "graph6"]) == 0
    line = capsys.readouterr().out.strip()
    assert len(line) > 1

    out_file = tmp_path / "petersen.g6"
    assert main(["export", "petersen", "--format", "graph6", "--out", str(out_file)]) == 0
    assert out_file.read_text().strip() == line

    assert main(["export", "petersen", "--format", "edgelist"]) == 0
    edges = capsys.readouterr().out.strip().splitlines()
    assert len(edges) == 15

    assert main(["export", "petersen"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vertices"] == 10 and len(out["edges"]) == 15


def test_graph_argument_accepts_files(tmp_path, capsys):
    assert main(["export", "petersen", "--format", "graph6"]) == 0
    line = capsys.readouterr().out
    path = tmp_path / "p.g6"
    path.write_text(line)
    assert main(["certify-srg", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["parameters"]["v"] == 10
    assert out["pass"] is True


def test_unknown_graph_is_usage_error():
    assert main(["build", "not-a-graph"]) == 2


@pytest.mark.parametrize("command", [["build", "c5"], ["run"]], ids=" ".join)
@pytest.mark.parametrize("target", ["directory", "missing-directory"])
def test_out_that_cannot_be_a_file_is_usage_error(command, target, tmp_path, capsys):
    # this used to raise IsADirectoryError or FileNotFoundError, exit 1, and
    # only after `run` had computed the whole pipeline
    out = tmp_path if target == "directory" else tmp_path / "no" / "such" / "r.json"
    assert main([*command, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"dezaforge: error: cannot write --out {str(out)!r}")
    assert not (tmp_path / "no").exists()


def test_failed_out_write_is_usage_error(tmp_path, capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "write_text", refuse)
    out = tmp_path / "c5.json"
    assert main(["build", "c5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"dezaforge: error: cannot write --out {str(out)!r}")
    assert "Permission denied" in captured.err


def test_unreadable_graph_file_is_usage_error(tmp_path, capsys, monkeypatch):
    # root reads a chmod 000 file, so the refusal is simulated
    path = tmp_path / "c5.g6"
    path.write_text(to_graph6(from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])))

    def refuse(self):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_bytes", refuse)
    assert main(["build", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"dezaforge: error: cannot read graph file {str(path)!r}")
    assert "Permission denied" in captured.err


def test_malformed_graph6_is_parse_error(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("~~~~zzz\n")
    assert main(["build", str(path)]) == 2


@pytest.mark.parametrize("text", ["C?\x1f", "C?\xa0"])
def test_graph6_with_trailing_non_ascii_whitespace_is_parse_error(tmp_path, capsys, text):
    path = tmp_path / "bad.g6"
    path.write_text(text + "\n")
    assert main(["build", str(path)]) == 2
    assert "graph6 parse failure" in capsys.readouterr().err


def test_aut_above_the_vertex_ceiling_is_usage_error(tmp_path, capsys):
    path = tmp_path / "big.g6"
    path.write_text(to_graph6(from_edges(VERTEX_CEILING + 1, [])) + "\n")
    assert main(["aut", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dezaforge: error:")
    assert f"above the ceiling {VERTEX_CEILING}" in err


def test_unknown_subcommand_exits_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_no_arguments_exits_2():
    proc = run_cli()
    assert proc.returncode == 2


def test_run_subprocess_report():
    proc = run_cli("run")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["schema"] == "deza-forge/1"
    assert report["overall_pass"] is True
    names = [s["name"] for s in report["stages"]]
    assert names[0] == "build-gamma"
    assert "aut-gamma" not in names  # deep stages are gated


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# The body of the wrapper that pip writes for a `module:attr` console script.
CONSOLE_SCRIPT_WRAPPER = """
import sys
from {module} import {attr}
sys.argv[0] = "dezaforge"
sys.exit({attr}())
"""


def declared_console_script():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "dezaforge" in scripts, "pyproject.toml declares no dezaforge console script"
    return scripts["dezaforge"]


def assert_certify_c5_passes(proc):
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True, proc.stderr


def test_console_script_is_installed():
    module, attr = declared_console_script().split(":")
    assert callable(getattr(importlib.import_module(module), attr))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            CONSOLE_SCRIPT_WRAPPER.format(module=module, attr=attr),
            "certify-srg",
            "c5",
        ],
        capture_output=True,
        text=True,
    )
    assert_certify_c5_passes(proc)


@pytest.mark.skipif(
    shutil.which("dezaforge") is None,
    reason="no dezaforge executable on PATH; the package is not installed",
)
def test_installed_console_script_runs():
    proc = subprocess.run(
        ["dezaforge", "certify-srg", "c5"], capture_output=True, text=True
    )
    assert_certify_c5_passes(proc)


INSTALLED_SCRIPTS = importlib.metadata.entry_points(
    group="console_scripts", name="dezaforge"
)


@pytest.mark.skipif(
    not INSTALLED_SCRIPTS,
    reason="no dezaforge console_scripts entry in the distribution metadata",
)
def test_installed_console_script_matches_pyproject():
    (entry,) = INSTALLED_SCRIPTS
    assert entry.value == declared_console_script()


def test_non_utf8_graph_file_is_a_parse_error(tmp_path, capsys):
    # exit 1 would claim a failed certification; a byte no graph6 line can
    # hold is an input error, reported at its offset
    path = tmp_path / "bad.g6"
    path.write_bytes(b"C\xff\xfe\n")
    assert main(["certify-srg", str(path)]) == 2
    path.write_bytes(b"C\xff\n")
    assert main(["certify-srg", str(path)]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert "invalid sixbit byte" in last and last.endswith("(byte offset 1)")


def test_run_does_not_load_numpy_ma(tmp_path):
    # importing numpy.ma costs a fresh process 12-16 ms; np.unique loads it
    script = (
        "import sys\n"
        "from dezaforge.cli import main\n"
        f"code = main(['run', '--deep', '--out', {str(tmp_path / 'run.json')!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.split() == ["0", "False"], proc.stderr
