"""Python function calls per operation on the benchmark's inputs, counted by
cProfile, to show how a change moves the work of each workload.

    python scripts/call_counts.py --seed 1

It sends every workload of perfbench/inputs.py once, in the benchmark's
round order, as a warm-up pass, then once more per workload under cProfile.
For each workload it prints the operation count, the operations that
raised, the function calls per operation (Python and built-in, as cProfile
counts them) and, from the same profile, the calls per operation of the
functions named in KERNELS.
Counts do not depend on the machine or on timing, so two trees can be
compared on any machine; run it on both and compare the lines.
"""

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
from pintbasis import cli  # noqa: E402

KERNELS = ("check_prime", "factor_mod_p", "factor_fqpoly", "phi_expand", "triangularize")


def run(argvs):
    """Send every argv to cli.main; the number of operations that raised."""
    failed = 0
    for argv in argvs:
        try:
            cli.main(argv, stdout=io.StringIO())
        except Exception:  # a traceback out of main is a failed operation
            failed += 1
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    workloads = {name: [argv for argv, _ in inputs.round_order(build(args.seed), name, args.seed)]
                 for name, build in inputs.WORKLOADS.items()}
    for argvs in workloads.values():
        run(argvs)
    for name, argvs in workloads.items():
        profile = cProfile.Profile()
        failed = profile.runcall(run, argvs)
        stats = pstats.Stats(profile)
        ops = len(argvs)
        kernels = dict.fromkeys(KERNELS, 0)
        for (path, _, func), (_, ncalls, *_) in stats.stats.items():
            if func in kernels and "pintbasis" in Path(path).parts:
                kernels[func] += ncalls
        counts = "  ".join(f"{k} {n / ops:.4g}" for k, n in kernels.items())
        print(f"{name}: {ops} ops, {failed} failed, {stats.total_calls / ops:.0f} calls/op"
              f"  {counts}")


if __name__ == "__main__":
    main()
