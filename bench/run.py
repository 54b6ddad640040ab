"""The dezaforge benchmark: one workload per run, every verdict checked.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {paper,aut-search,graph6-batch} \
        --seed N --seconds S --trace {0,1}

The program runs from `src` (PYTHONPATH=src) in a child process started by
this script; inputs are generated here from the seed, written as graph6 with
networkx, and handed over as files in a fresh directory under `.bench_runs/`
that is removed at the end. Each child runs whole rounds of the workload's
jobs, so every run attempts the same mix of verdicts. The last line printed
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics (from a
separate traced child) with `--trace 1`. See README.md for what each metric
means and which workload should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("paper", "aut-search", "graph6-batch")
AUT_COPIES = 3
AUT_SKIPPED = ("triangular-7", "triangular-8", "rook-5", "rook-6")
SEGMENTS = 3  # program processes that run the verdicts of one untraced run
PROBES = 8  # extra processes per untraced run that only set up, so set-up is timed 10+ times
END_TO_END = {
    "setup_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}
STAGE_METRICS = tuple(f"stage.{name}_ms" for name in checks.PAPER_STAGES)


@dataclass
class Job:
    argv: list[str]
    check: Callable[[object, str], None]
    known_fault: bool = False


@dataclass
class Child:
    setup_s: float
    rows: list[dict]
    rss_mb: float


class Runner:
    """Starts program processes one at a time and collects their verdicts."""

    def __init__(self, root: Path, run_dir: Path, limit_s: float) -> None:
        self.root = root
        self.run_dir = run_dir
        self.started = time.monotonic()
        self.limit_s = limit_s  # every child is killed once the run is this old
        self.count = 0
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
            TMPDIR=str(run_dir),
        )

    def child(self, jobs: list[Job], *, seconds: float | None = None, rounds: int | None = None,
              warm: bool = False, trace: bool = False) -> tuple[Child, dict | None]:
        self.count += 1
        tag = self.run_dir / f"child{self.count}"
        spec = {
            "jobs": [job.argv for job in jobs],
            "seconds": seconds,
            "rounds": rounds,
            "warm": warm,
            "trace": str(tag) + ".trace.json" if trace else None,
            "results": str(tag) + ".results.jsonl",
        }
        Path(str(tag) + ".spec.json").write_text(json.dumps(spec))
        with open(str(tag) + ".stdout", "wb") as out, open(str(tag) + ".stderr", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(tag) + ".spec.json"],
                cwd=self.root, env=self.env, stdout=out, stderr=err,
            )
            status, usage = self._wait(proc)
        if status != 0:
            tail = Path(str(tag) + ".stderr").read_text()[-2000:]
            raise RuntimeError(f"program process exited with status {status}:\n{tail}")
        lines = [json.loads(line) for line in Path(spec["results"]).read_text().splitlines()]
        result = Child(
            setup_s=lines[0]["ready"] - spawned,
            rows=lines[1:-1],
            rss_mb=usage.ru_maxrss / 1024.0,
        )
        spans = json.loads(Path(spec["trace"]).read_text()) if trace else None
        return result, spans

    def probe(self, warm: bool) -> float:
        """Seconds from starting a process that only sets up until it is ready."""
        child, _ = self.child([], warm=warm)
        return child.setup_s

    def _wait(self, proc: subprocess.Popen):
        """Wait for the child and return its exit status and resource usage."""
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() - self.started > self.limit_s:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise RuntimeError("program process overran the run's time limit")
            time.sleep(0.02)


# -- workloads ---------------------------------------------------------------------


def paper_jobs(run_dir: Path, seed: int) -> tuple[list[Job], bool]:
    """`dezaforge run --deep`; it takes no input, so the seed is not used."""
    ctx = checks.PaperContext()
    return [Job(["run", "--deep"], lambda code, out: checks.check_paper(ctx, code, out))], False


def _file(run_dir: Path, e: gen.Expected) -> tuple[str, bytes]:
    path = run_dir / f"{e.name}.g6"
    copy = 1
    while path.exists():
        copy += 1
        path = run_dir / f"{e.name}.{copy}.g6"
    data = gen.write_graph6(e.adj, path)
    return str(path), data


def _relabelled(seed: int, items: list[gen.Expected]) -> list[gen.Expected]:
    out = []
    for i, e in enumerate(items):
        rng = np.random.default_rng([seed, i])
        out.append(gen.relabel(e, rng))
        checks.eigen_oracle(e)
    return out


def aut_jobs(run_dir: Path, seed: int) -> tuple[list[Job], bool]:
    """Seeded searches of the named graphs, unseeded searches of relabelled files."""
    paper = {e.name: e for e in gen.paper_graphs()}
    jobs = [
        Job(["aut", name], lambda code, out, e=paper[name]: checks.check_aut(e, code, out))
        for name in ("gamma", "delta")
    ]
    # the middle-sized family members are left out so that the median
    # verdict falls inside the dense cluster of small searches, not on the
    # edge between two sizes where drift would move it from one to the other
    family = [e for e in gen.closed_form_family() if e.name not in AUT_SKIPPED]
    items = [paper["gamma"], paper["delta"], *family]
    # several relabelled copies of each graph, since the search's cost
    # depends on the labelling and one copy would tie the figures to the seed
    for e in _relabelled(seed, items * AUT_COPIES):
        path, _ = _file(run_dir, e)
        jobs.append(Job(["aut", path], lambda code, out, e=e: checks.check_aut(e, code, out)))
    return jobs, True


def batch_jobs(run_dir: Path, seed: int) -> tuple[list[Job], bool]:
    """Certificates, spectra and export on relabelled graph6 files."""
    paper = gen.paper_graphs()
    fault = gen.isolated_plus_triangle()
    # Not relabelled: spectra.discover_spectrum tries Krylov seeds 0-7 only,
    # all of them isolated vertices here, and reports the spectrum as not
    # integral. The verdict is wrong on every run and counted as failed.
    checks.eigen_oracle(fault)
    path, _ = _file(run_dir, fault)
    jobs = [Job(["spectrum", path], lambda code, out: checks.check_spectrum(fault, code, out), True)]
    for e in _relabelled(seed, [*gen.closed_form_family(), *paper]):
        path, data = _file(run_dir, e)

        def add(argv, fn, e=e):
            jobs.append(Job(argv, lambda code, out: fn(e, code, out)))

        if e.ddg_params is None:
            add(["certify-srg", path], checks.check_srg)
        add(["certify-deza", path], checks.check_deza)
        if e.ddg_params is not None:
            add(["certify-ddg", path], checks.check_ddg)
        add(["spectrum", path], checks.check_spectrum)
        if e.spectrum is not None:
            add(["spectrum", path, "--claim", checks.claim_text(e.spectrum)], checks.check_claim)
        jobs.append(Job(["export", path, "--format", "graph6"],
                        lambda code, out, data=data: checks.check_export(data, code, out)))
    return jobs, False


BUILDERS = {"paper": paper_jobs, "aut-search": aut_jobs, "graph6-batch": batch_jobs}


# -- measurement ---------------------------------------------------------------------


class Tally:
    """Judges every verdict; a wrong answer outside the known fault is incorrect."""

    def __init__(self, jobs: list[Job]) -> None:
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, child: Child) -> None:
        for row in child.rows:
            job = self.jobs[row["job"]]
            self.attempted += 1
            try:
                if "error" in row:
                    raise checks.Wrong(row["error"].strip().splitlines()[-1])
                job.check(row["code"], row["out"])
            except (checks.Wrong, KeyError, TypeError, ValueError, IndexError) as exc:
                self.failed += 1
                if not job.known_fault:
                    self.problems.append(f"{' '.join(job.argv)}: {type(exc).__name__}: {exc}")

    @property
    def correct(self) -> bool:
        return not self.problems


def untraced(runner: Runner, workload: str, jobs: list[Job], warm: bool, seconds: float,
             tally: Tally) -> tuple[list[Child], list[float]]:
    """The run's verdict processes, and the set-up time of every process started.

    The set-up probes are spread between the verdict processes, so that a
    slow or fast phase of the machine does not fall on set-up alone.
    """
    children: list[Child] = []
    setups: list[float] = []
    probes_left = PROBES

    def probes(count: int) -> None:
        nonlocal probes_left
        for _ in range(min(count, probes_left)):
            setups.append(runner.probe(warm))
            probes_left -= 1

    def verdicts(**kwargs) -> None:
        child, _ = runner.child(jobs, warm=warm, **kwargs)
        tally.judge(child)
        children.append(child)
        setups.append(child.setup_s)

    if workload == "paper":
        # one fresh interpreter per verdict, as a reader runs it
        spent = 0.0
        while not children or spent < seconds:
            probes(2)
            begin = time.monotonic()
            verdicts(rounds=1)
            spent += time.monotonic() - begin
    else:
        for _ in range(SEGMENTS):
            probes(-(-PROBES // SEGMENTS))
            verdicts(seconds=seconds / SEGMENTS)
    probes(PROBES)
    return children, setups


def end_to_end(children: list[Child], setups: list[float], workload: str) -> dict[str, float]:
    times = [row["s"] for c in children for row in c.rows]
    per_job: dict[int, list[float]] = {}
    for row in (row for c in children for row in c.rows):
        per_job.setdefault(row["job"], []).append(row["s"])
    # a round's verdicts over a round made of each job's median time, so a
    # segment caught in a slow spell of the machine does not set the rate
    round_s = sum(statistics.median(samples) for samples in per_job.values())
    p50 = statistics.median(times)
    # a paper run holds a handful of verdicts, too few for a tail: its p90
    # slot repeats the median rather than report the slowest sample
    p90 = p50 if workload == "paper" else statistics.quantiles(times, n=10)[-1]
    return {
        "setup_s": statistics.median(setups),
        "verdict_p50_ms": p50 * 1000.0,
        "verdict_p90_ms": p90 * 1000.0,
        "verdicts_per_s": len(per_job) / round_s,
        "peak_rss_mb": statistics.median(c.rss_mb for c in children),
    }


def per_layer(runner: Runner, workload: str, jobs: list[Job], warm: bool, seconds: float,
              tally: Tally) -> dict[str, float]:
    """Untraced child, then one traced round in a fresh child; figures per verdict."""
    if workload == "paper":
        plain, _ = runner.child(jobs, rounds=1)
    else:
        plain, _ = runner.child(jobs, seconds=seconds / 2, warm=warm)
    tally.judge(plain)
    traced, spans = runner.child(jobs, rounds=1, warm=warm, trace=True)
    tally.judge(traced)
    verdicts = len(traced.rows)
    out = {name: value / verdicts for name, value in tracer.summarize(spans).items()}
    stages = {name: 0.0 for name in STAGE_METRICS}
    if workload == "paper":
        samples = [json.loads(row["out"])["stages"] for row in plain.rows]
        for name in checks.PAPER_STAGES:
            stages[f"stage.{name}_ms"] = statistics.median(
                next(s["elapsed"] for s in run if s["name"] == name) for run in samples
            ) * 1000.0
    out.update(stages)
    out["trace.overhead_ms"] = 1000.0 * (
        statistics.median(r["s"] for r in traced.rows) - statistics.median(r["s"] for r in plain.rows)
    )
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return "ms" if name.endswith("_ms") or name.endswith(".ms") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dezaforge" / "cli.py").is_file():
        print("bench: run from the root of a dezaforge checkout (src/dezaforge is missing)",
              file=sys.stderr)
        return 2
    (root / ".bench_runs").mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_runs"))
    try:
        runner = Runner(root, run_dir, limit_s=args.seconds * 3 + 60)
        jobs, warm = BUILDERS[args.workload](run_dir, args.seed)
        tally = Tally(jobs)
        if args.trace:
            metrics = per_layer(runner, args.workload, jobs, warm, args.seconds, tally)
        else:
            children, setups = untraced(runner, args.workload, jobs, warm, args.seconds, tally)
            metrics = end_to_end(children, setups, args.workload)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in tally.problems[:20]:
        print(f"bench: wrong answer: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
