"""Benchmark of pintbasis, driven from outside through ``cli.main``.

    python3 perfbench/run.py --workload quartic-corpus --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each workload runs in its own process
(worker.py).  With --trace 0 the last line of standard output is one JSON
object with every end-to-end metric; with --trace 1 a separate traced round
gives the per-layer metrics and the spans go to perfbench/out/.  setup_s is
the median over SETUP_RUNS processes: SETUP_RUNS - 1 that only set up, and
the measuring one.  Exits non-zero without a result when the program's
sources are missing or a worker fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("quartic-corpus", "quartic-irregular", "generic-ladder", "verify-mixed")
SETUP_RUNS = 5
DEADLINE_S = 170


def worker(args, extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--started-ns", str(started)], capture_output=True,
                          text=True, timeout=timeout, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (HERE.parent / "src" / "pintbasis" / "cli.py").is_file():
        sys.exit("pintbasis sources not found under src/; run from the repository root")
    start = time.monotonic()

    extra = []
    setups = []
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        extra = ["--trace-out", str(out / f"trace-{args.workload}-{args.seed}.jsonl")]
    else:
        for _ in range(SETUP_RUNS - 1):
            setups.append(worker(args, ["--setup-only"], 60)["setup_s"])
    result = worker(args, extra, DEADLINE_S - (time.monotonic() - start))
    sys.stderr.write(f"round times {' '.join(f'{t:.2f}' for t in result['round_s'])} s, "
                     f"checks {result['check_s']:.2f} s\n")
    for reason in result["wrong"]:
        sys.stderr.write(f"wrong answer: {reason}\n")
    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
