"""Regenerate the reference figures in README.md.

Usage, from the root of a source checkout:

    python3 bench/figures.py [--seeds 11-20]

Times the fixed reference loop (bench/reference.py), then runs every
workload once per seed with the run length from BENCHMARK.json, then times
the reference loop again. Prints one line per run and, per workload and
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4)
and the quartile distance as a share of the median, as a Markdown table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent


def reference() -> dict:
    out = subprocess.run([sys.executable, str(BENCH / "reference.py")],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="11-20")
    args = parser.parse_args()
    low, _, high = args.seeds.partition("-")
    seeds = range(int(low), int(high or low) + 1)
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = str(config["run_seconds"])

    before = reference()
    print("reference loop before:", json.dumps(before), flush=True)
    tables = []
    for workload in run.WORKLOADS:
        runs = []
        for seed in seeds:
            start = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                capture_output=True, text=True,
            )
            if out.returncode:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr[-3000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {time.monotonic() - start:.1f} s, correct={result['correct']}, "
                  f"attempted={result['attempted']}, failed={result['failed']}, {values}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        tables.append(f"\n{workload}: {len(runs)} runs, failed share {shares}\n")
        tables.append("| metric | median | Q1 | Q3 | (Q3-Q1)/median |\n| --- | --- | --- | --- | --- |")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            unit = runs[0]["metrics"][name]["unit"]
            tables.append(f"| {name} ({unit}) | {q2:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / q2:.3f} |")
    after = reference()
    print("reference loop after:", json.dumps(after))
    print("\n".join(tables))
    print("\n| reference loop | median before | (Q3-Q1)/median before | median after | (Q3-Q1)/median after |")
    print("| --- | --- | --- | --- | --- |")
    for key in before:
        print(f"| {key} | {before[key]['median']:.1f} | {before[key]['iqr_share']:.3f} "
              f"| {after[key]['median']:.1f} | {after[key]['iqr_share']:.3f} |")


if __name__ == "__main__":
    main()
