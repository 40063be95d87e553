"""Digest of every answer ``pintbasis.cli.main`` gives on the benchmark's
inputs, to show that a change leaves the answers byte-identical.

    python scripts/answers_digest.py --seed 1

For each workload of perfbench/inputs.py, sent in the benchmark's round
order, it prints the operation count and one SHA-256 over every (argv, exit
code, printed text).  One more line covers the second-order paths: `basis
--method quartic --json` and `verify -f` on the quartic-irregular rows and
on the quartics the second-order acceptance test (criterion 7) draws its
witnesses from.  A last line covers `oracle --json` (Round 2 from the
power basis) on every `basis` input of the workloads.  Run it on two trees
and compare the lines.
"""

import argparse
import hashlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
from pintbasis import cli  # noqa: E402

# the curated seeds and the draw of tests/test_acceptance.py:_order2_witnesses
ORDER2_SEEDS = ((3, 9, 9, 3), (5, 25, 25, 5), (-4, -4, -4, 2), (8, -320, 4, 2),
                (14, -44, 49, 2), (14, -56, 45, 2), (10, -120, 45, 2), (-54, 296, -307, 2))


def call(argv):
    """(exit code, printed text); exit code None when main raised."""
    buf = io.StringIO()
    try:
        rc = cli.main(argv, stdout=buf)
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue()


def digest(argvs):
    h = hashlib.sha256()
    for argv in argvs:
        h.update((json.dumps([argv, *call(argv)]) + "\n").encode())
    return h.hexdigest()


def order2_quartics():
    rng = random.Random(909)
    rows = list(ORDER2_SEEDS)
    for _ in range(400):
        a = 4 * rng.randint(-20, 20)
        b = 4 * rng.randint(-20, 20)
        c = 4 * rng.choice([1, 3, 5, 7, -1, -3, -5, -7])
        rows.append((a, b, c, 2))
    rows = [r for r in rows if inputs.quartic_irreducible(*r[:3])]
    return inputs._read_rows("quartic_irregular.txt") + list(inputs.KNOWN_FAILING) + rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    oracle = []
    for name, build in inputs.WORKLOADS.items():
        ops = inputs.round_order(build(args.seed), name, args.seed)
        print(f"{name}: {len(ops)} answers, sha256 {digest([argv for argv, _ in ops])}")
        oracle += [["oracle", *argv[1:5], "--json"] for argv, _ in ops if argv[0] == "basis"]
    argvs = []
    for a, b, c, p in order2_quartics():
        f = inputs.render(inputs.quartic(a, b, c))
        argvs += [["basis", "-f", f, "-p", str(p), "--method", "quartic", "--json"],
                  ["verify", "-f", f, "-p", str(p)]]
    print(f"second-order paths: {len(argvs)} answers, sha256 {digest(argvs)}")
    print(f"oracle on basis inputs: {len(oracle)} answers, sha256 {digest(oracle)}")


if __name__ == "__main__":
    main()
