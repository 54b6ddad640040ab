"""Child process that runs `dezaforge.cli.main` on a list of jobs.

Usage: python3 worker.py SPEC.json

SPEC holds the job argument lists, the results path, and either a number of
seconds or a fixed number of rounds. A round runs every job once; with
seconds, another round starts only while one more round as long as the last
still ends within them, so a run never stops part-way through a round. With
"trace" set, `tracer.Tracer` is installed right after `dezaforge.cli` is
imported and its spans are written to the given path. With "warm" set, the
catalogue's automorphism seeds are then built before the first verdict, so a
traced warm-up is recorded too. A spec with no jobs is a set-up probe: it
only imports, warms and reports that it is ready.

The results file gets one JSON line per event: first {"ready": t} with the
`time.monotonic()` reading once set-up is over, then one line per verdict
with its wall seconds, exit code and standard output, and last the loop's
wall seconds. Only the standard library and the program are imported.
"""

import contextlib
import io
import json
import sys
import time
import traceback


def main() -> None:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import dezaforge.cli as cli

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if spec.get("warm"):
        import dezaforge.catalog as catalog

        catalog.known_generators("gamma")
        catalog.known_generators("delta")
    jobs = spec["jobs"]
    if not jobs:
        with open(spec["results"], "w") as out:
            out.write(json.dumps({"ready": time.monotonic()}) + "\n")
        return
    rounds_wanted = spec.get("rounds")
    with open(spec["results"], "w") as out:
        out.write(json.dumps({"ready": time.monotonic()}) + "\n")
        begin = time.perf_counter()
        rounds = 0
        last = 0.0
        while (
            rounds < rounds_wanted
            if rounds_wanted
            # start a round only if one more as long as the last still fits
            else rounds == 0 or time.perf_counter() - begin + last <= spec["seconds"]
        ):
            round_start = time.perf_counter()
            for index, argv in enumerate(jobs):
                buf = io.StringIO()
                error = None
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(argv)
                except Exception:  # recorded and judged by the checks
                    code, error = None, traceback.format_exc()
                elapsed = time.perf_counter() - t0
                row = {"job": index, "s": elapsed, "code": code, "out": buf.getvalue()}
                if error:
                    row["error"] = error
                out.write(json.dumps(row) + "\n")
            rounds += 1
            last = time.perf_counter() - round_start
        out.write(json.dumps({"loop_s": time.perf_counter() - begin, "rounds": rounds}) + "\n")
    if tracer is not None:
        tracer.dump(spec["trace"])


if __name__ == "__main__":
    main()
