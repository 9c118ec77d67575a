"""Build-and-map benchmark for cdbgmap.

Usage, from the root of a checkout:
    python3 bench/run.py --workload {uniq-ref,repeat-ref,reads-build} \
        --seed N --seconds S --trace {0,1}

The workload's inputs are generated from the seed (bench/workloads.py).
With --trace 0 the `cdbgmap` CLI runs in fresh child processes with no
tracing, for S seconds, in rounds: a set-up (`cdbgmap build`, then the
index build and save) in each of the first SETUP_REPS rounds, one
`cdbgmap map --index-in` pass and one pass of the greedy-vs-exhaustive
audit (bench/audit.py); audit passes fill the end of the window.  Set-up
time and peak RSS are medians over the repetitions; throughputs are reads
over the summed time of all passes.  With --trace 1 the
same commands run once in this process with every layer's public
functions wrapped from outside (bench/traced.py), and the per-layer
metrics are printed instead.

Every map TSV is checked from outside the program (bench/checker.py).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `failed` counts the reads
whose output failed a check, so `failed / attempted` is the failed
fraction, which must be 0.  Lines before it are human-readable notes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys

from harness import Workdir, timed_run
from workloads import SPECS, generate

SETUP_REPS = 3
MIN_ROUNDS = 2


def log(message: str) -> None:
    print(message, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cdbgmap", "cli.py")):
        print("error: run from a checkout root holding src/cdbgmap", file=sys.stderr)
        return 2
    path = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        spec = generate(args.workload, args.seed, path)
        wd = Workdir(root, path, spec)
        if args.trace:
            sys.path.insert(0, os.path.join(root, "src"))
            from traced import traced_run

            metrics, failed, attempted, checks_ok = traced_run(wd, log)
        else:
            metrics, failed, attempted, checks_ok = timed_run(
                wd, args.seconds, SETUP_REPS, MIN_ROUNDS, log
            )
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(path))  # only when no other run uses it
    for name, (value, unit) in metrics.items():
        log(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
