#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (and the repository's src/ with it) into .bench_build/
with CMake, runs the harness self-tests, then runs the workload in its own
process. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero when
the build, a self-test, or any output's correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.abspath(
    os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
# A run must end within 180 s of its start, not counting the build.
RUN_TIMEOUT_S = 175


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing; nothing to build", 3)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != BENCH_DIR:
            shutil.rmtree(BUILD_DIR)  # configured for another checkout
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench", "harness_test"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path, 3)


def provenance():
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit or "unknown", digest.hexdigest()


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MATRYOSHKA_")}  # no engine overrides
    env["TMPDIR"] = os.path.join(BUILD_DIR, "tmp")  # spill files stay here
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def validate(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(wanted.items()))
    return None


def run_workload(args, spec, commit, source_sha, deadline):
    """Runs one workload; returns (exit code, result or None, metric lines)."""
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.join(BUILD_DIR, "traces", "%s-seed%d.json"
                                       % (args.workload, args.seed)),
           "--commit", commit, "--source-sha256", source_sha]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 6, None, []
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    metric_lines = [l for l in lines if l.startswith("metric ")]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print("perfbench: %s printed no result (exit %d)"
              % (args.workload, proc.returncode), file=sys.stderr)
        return proc.returncode or 5, None, metric_lines
    problem = validate(result, spec, args.trace)
    if problem:
        print("perfbench: %s: %s" % (args.workload, problem), file=sys.stderr)
        return 5, None, metric_lines
    return proc.returncode, result, metric_lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r (known: %s, all)"
             % (args.workload, ", ".join(names)), 2)
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    build()
    started = time.monotonic()
    test = subprocess.run([os.path.join(BUILD_DIR, "harness_test")],
                          stdout=subprocess.PIPE, text=True, timeout=60)
    if test.returncode != 0:
        fail("harness self-tests failed", 4)
    commit, source_sha = provenance()

    if args.workload != "all":
        code, result, _ = run_workload(args, spec, commit, source_sha,
                                       started + RUN_TIMEOUT_S)
        if result is not None:
            print(json.dumps(result))
        sys.exit(code)

    # Every workload, each in its own process; a summary of every metric by
    # name, value, unit and sample count, and one combined result.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    summary = []
    worst = 0
    for name in names:
        args.workload = name
        print("== %s" % name)
        code, result, metric_lines = run_workload(
            args, spec, commit, source_sha, time.monotonic() + RUN_TIMEOUT_S)
        worst = worst or code
        summary += ["%-20s %s" % (name, l[len("metric "):])
                    for l in metric_lines]
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
    print("== summary")
    print("\n".join(summary))
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
