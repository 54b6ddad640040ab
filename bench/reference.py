"""A fixed reference loop, to tell machine drift from a change in the program.

Usage: python3 bench/reference.py

Each of 30 samples times one pure-Python loop (dict and integer work, no imports)
and one 486 x 486 int64 matrix product, the kind of product the certifier
spends most of the paper run on. Neither depends on dezaforge, so a spread
or shift in these figures is the machine's, not the program's. Prints one
JSON line per sample and a summary line with the median and quartiles.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

SAMPLES = 30


def python_loop() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(300_000):
        table[i & 1023] = table.get(i & 1023, 0) + (i * i) % 7
        acc ^= table[i & 1023]
    return acc


def int64_product(a: np.ndarray) -> int:
    return int((a @ a).trace())


def main() -> None:
    rng = np.random.default_rng(0)
    a = (rng.random((486, 486)) < 0.09).astype(np.int64)
    rows = {"python_ms": [], "int64_ms": []}
    for _ in range(SAMPLES):
        t = time.perf_counter()
        python_loop()
        rows["python_ms"].append((time.perf_counter() - t) * 1000)
        t = time.perf_counter()
        int64_product(a)
        rows["int64_ms"].append((time.perf_counter() - t) * 1000)
        print(json.dumps({k: v[-1] for k, v in rows.items()}), flush=True)
    summary = {}
    for k, v in rows.items():
        q1, q2, q3 = statistics.quantiles(v, n=4)
        summary[k] = {"median": q2, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / q2}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
