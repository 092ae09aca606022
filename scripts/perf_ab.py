#!/usr/bin/env python3
"""Paired A/B of two checkouts on one perfbench workload.

    python3 scripts/perf_ab.py --parent DIR --change DIR --workload W \
        --pairs N --seed S [--seconds 20] [--out FILE]

Each DIR is a checkout of the repository, for example one made with
`git archive <rev> | tar -x -C DIR`. Each side runs its own
`perfbench/run.py --trace 0`, which builds into that checkout's
`.bench_build/`. Pair i runs the parent first when i is even and the change
first when i is odd. Every run's result object is appended, with its pair
and side, as one line of the JSONL file FILE (default: the change's
`.bench_build/perf_ab.jsonl`).

For each end-to-end metric of the change's BENCHMARK.json it prints both
sides' median and quartiles, the change's wins and ties over the pairs, the
median's move against the metric's regression bound, and whether a gain may
be claimed: the change wins at least 9 of every 10 pairs, and the medians
differ in its favour by more than the parent's interquartile range.

The exit code is non-zero when any run fails, prints no result, reports
`correct: false` or reports a failed operation.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_side(checkout, args):
    """Runs one side once; returns (exit code, result object or None)."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        result = None
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(spec, runs):
    """Prints one row per end-to-end metric; `runs` is a list of pairs."""
    need = math.ceil(0.9 * len(runs))
    print("%-14s %-30s %-30s %8s %6s %5s %7s %s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "move", "wins", "ties", "bound", "gain (>=%d/%d wins, gap > IQR)"
        % (need, len(runs))))
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        if any(name not in r[side]["metrics"]
               for r in runs for side in ("parent", "change")):
            continue
        par = [r["parent"]["metrics"][name]["value"] for r in runs]
        chg = [r["change"]["metrics"][name]["value"] for r in runs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        ties = sum(c == p for p, c in zip(par, chg))
        pm, cm = statistics.median(par), statistics.median(chg)
        pq, cq = quartiles(par), quartiles(chg)
        gap = (pm - cm) if lower else (cm - pm)  # > 0: the change is better
        move = (cm - pm) / pm if pm else 0.0
        worse = -gap / abs(pm) if pm else 0.0
        within = "ok" if worse <= m["bound"] else "WORSE"
        gain = "yes" if wins >= need and gap > pq[1] - pq[0] else "no"
        print("%-14s %-30s %-30s %+7.1f%% %3d/%-2d %5d %7s %s" % (
            name, "%.4g [%.4g, %.4g]" % (pm, pq[0], pq[1]),
            "%.4g [%.4g, %.4g]" % (cm, cq[0], cq[1]), 100 * move, wins,
            len(runs), ties, within, gain))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out")
    args = parser.parse_args()
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    out = args.out or os.path.join(checkouts["change"], ".bench_build",
                                   "perf_ab.jsonl")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)

    runs, bad = [], 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            code, result = run_side(checkouts[side], args)
            with open(out, "a") as f:
                f.write(json.dumps({
                    "workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "pair": i, "side": side,
                    "checkout": checkouts[side], "result": result}) + "\n")
            if (code != 0 or result is None or not result.get("correct")
                    or result.get("failed", 0) > 0):
                bad += 1
                print("perf_ab: pair %d %s: exit %d, failed or incorrect run"
                      % (i, side, code), file=sys.stderr)
                result = None
            pair[side] = result
        if all(r is not None for r in pair.values()):
            runs.append(pair)
        print("pair %d/%d done (%s first)" % (i + 1, args.pairs, order[0]),
              flush=True)

    print("== %s seed %d, %d s, %d pairs (results: %s)"
          % (args.workload, args.seed, args.seconds, len(runs), out))
    if runs:
        report(spec, runs)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
