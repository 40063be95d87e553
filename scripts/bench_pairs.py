"""Alternating benchmark runs of two trees on one workload, to compare a
change with its parent.

    python scripts/bench_pairs.py --parent ../parent --change . --workload generic-ladder --pairs 5

Each pair runs ``perfbench/run.py --workload W --seed 1 --seconds 20
--trace 0`` once in each tree, from its root: parent first in even pairs
and change first in odd ones (P C, C P, ...), so drift of the machine falls
on both sides alike.  It prints every run's five end-to-end metrics, then
each side's median and the change's median against the parent's in
percent, with the number of pairs in which the change reads better.  A
metric whose change median is worse than the parent's by more
than its bound in BENCHMARK.json is marked with "!".  Nothing under
perfbench/ is changed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "1", "--seconds", "20", "--trace", "0"]


def run(tree, workload):
    """The metric values of one benchmark run in tree."""
    proc = subprocess.run([sys.executable, *RUN, "--workload", workload], cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tree}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {tree}: correct {result['correct']}, failed {result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse(parent, change, spec):
    """True when the change's median is past the metric's bound."""
    if spec["better"] == "higher":
        return change < parent * (1 - spec["bound"])
    return change > parent * (1 + spec["bound"])


def better(parent, change, spec):
    return change > parent if spec["better"] == "higher" else change < parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    args = ap.parse_args()
    specs = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = {"P": [], "C": []}
    trees = {"P": args.parent.resolve(), "C": args.change.resolve()}
    print(f"{args.workload}: " + "  ".join(specs))
    for pair in range(args.pairs):
        for side in ("PC" if pair % 2 == 0 else "CP"):
            values = run(trees[side], args.workload)
            runs[side].append(values)
            print(f"pair {pair + 1} {side}: " + "  ".join(f"{values[n]:.4g}" for n in specs),
                  flush=True)
    for name, spec in specs.items():
        p = statistics.median(v[name] for v in runs["P"])
        c = statistics.median(v[name] for v in runs["C"])
        mark = " !" if worse(p, c, spec) else ""
        change = f"{(c / p - 1) * 100:+.1f} %" if p else "n/a"
        wins = sum(better(vp[name], vc[name], spec) for vp, vc in zip(runs["P"], runs["C"]))
        print(f"median {name}: {p:.4g} -> {c:.4g} {spec['unit']} ({change}), "
              f"change better in {wins} of {args.pairs} pairs{mark}")


if __name__ == "__main__":
    main()
