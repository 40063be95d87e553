"""One workload process: set up, warm up, run the timed phase, check.

Started by run.py, which passes the monotonic clock reading it took just
before starting this process, so set-up time covers the interpreter start.
Prints one JSON object on its last line of standard output.

The timed phase is a closed loop of one caller on one thread: each operation
is one in-process call of ``pintbasis.cli.main(argv, stdout=buffer)``, sent
when the previous one has returned.  Every round sends the same operations in
the same seeded order, and the phase ends after the first whole round that
finishes past --seconds.  With --trace 1 one more round runs with the tracer
installed; its answers must be identical to the untraced ones.

Timings are taken over rounds by median, so that a burst of contention for
the processor in one round does not move them: ok_per_s is the checked-correct
operations of a round over the median round time, and the latency metrics are
percentiles over the round's operations of each operation's median latency.
"""

import argparse
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

WARMUP_OPS = 8
TAIL_BEYOND = 10  # operations a round must have beyond latency_tail_ms


def call(cli, argv):
    """(exit code, printed text); exit code None when main raised."""
    buf = io.StringIO()
    try:
        rc = cli.main(argv, stdout=buf)
    except Exception as exc:  # a traceback out of main is a failed operation
        return None, f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue()


def run_round(cli, ops, latencies=None):
    answers = []
    for argv, _ in ops:
        t = time.perf_counter()
        answers.append(call(cli, argv))
        if latencies is not None:
            latencies.append(time.perf_counter() - t)
    return answers


def tail_percentile(ops_per_round):
    """The highest whole percentile with TAIL_BEYOND operations beyond it."""
    return math.floor(100 * (ops_per_round - TAIL_BEYOND) / ops_per_round)


def failed(answer):
    rc, _ = answer
    return rc is None or rc == 2


def check_rounds(checks, ops, rounds):
    """(ok, failed, wrong answers with reasons); each distinct answer to an
    operation is checked once."""
    verdicts = {}
    oracle_cache = {}
    ok = nfailed = 0
    wrong = []
    for answers in rounds:
        for i, answer in enumerate(answers):
            if failed(answer):
                nfailed += 1
                continue
            key = (i, answer)
            if key not in verdicts:
                rc, text = answer
                verdicts[key] = checks.check(ops[i][1], text, rc, oracle_cache)
            if verdicts[key] is None:
                ok += 1
            else:
                wrong.append(f"{' '.join(ops[i][0])}: {verdicts[key]}")
    return ok, nfailed, wrong


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    from pintbasis import cli

    ops = inputs.WORKLOADS[args.workload](args.seed)
    order = inputs.round_order(ops, args.workload, args.seed)
    run_round(cli, ops[:WARMUP_OPS])
    setup_s = (time.monotonic_ns() - args.started_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    latencies = []  # one list per round
    rounds = []
    round_walls = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        t = time.perf_counter()
        latencies.append([])
        rounds.append(run_round(cli, order, latencies[-1]))
        round_walls.append(time.perf_counter() - t)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import checks
    t = time.perf_counter()
    ok, nfailed, wrong = check_rounds(checks, order, rounds)
    result = {"attempted": len(order) * len(rounds), "failed": nfailed, "rounds": len(rounds),
              "round_s": round_walls, "check_s": time.perf_counter() - t}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            t = time.perf_counter()
            traced = run_round(cli, order)
            traced_wall = time.perf_counter() - t
        finally:
            tracer.uninstall()
        if traced != rounds[0]:
            wrong.append("traced answers differ from untraced answers")
        overhead = traced_wall / statistics.median(round_walls)
        result["metrics"] = tracer.metrics(len(order), overhead)
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        per_op = [statistics.median(samples) for samples in zip(*latencies)]
        tail = percentile(per_op, tail_percentile(len(order)))
        result["metrics"] = {
            "ok_per_s": {"value": ok / len(rounds) / statistics.median(round_walls),
                         "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result["correct"] = not wrong
    result["wrong"] = wrong[:5]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
