#!/usr/bin/env sh
# Builds and runs the test suite. Usage:
#   scripts/check.sh            # RelWithDebInfo build + full ctest
#   scripts/check.sh asan       # ASan+UBSan build + full ctest
#   scripts/check.sh faults     # RelWithDebInfo build + fault-suite only
#   scripts/check.sh obs        # obs suite + end-to-end --trace/--metrics-json
#   scripts/check.sh recovery   # faults+recovery suites under default AND
#                               # asan, + bench_recovery metrics round-trip
#   scripts/check.sh tsan       # thread-pool + parallel-determinism suites
#                               # under ThreadSanitizer
#   scripts/check.sh perf       # Release build + real wall-clock throughput
#                               # bench with metrics-JSON schema validation,
#                               # then the tsan suites
#   scripts/check.sh serve      # serving suite under the default preset AND
#                               # ThreadSanitizer, + bench_serving metrics
#                               # round-trip with latency-schema validation
#   scripts/check.sh spill      # external-execution (out-of-core) contract:
#                               # spill+faults suites with a tiny real memory
#                               # budget forced process-wide
#                               # (MATRYOSHKA_REAL_BUDGET) under the default
#                               # preset AND ASan, then the external/parallel
#                               # determinism suites under TSan both
#                               # unbounded and forced
#   scripts/check.sh chaos      # real-fault contract: the chaos suite, then
#                               # the spill+faults suites with a recoverable
#                               # real-IO fault storm AND a tiny budget forced
#                               # process-wide (MATRYOSHKA_REAL_FAULTS +
#                               # MATRYOSHKA_REAL_BUDGET) under the default
#                               # preset and ASan, the chaos suites under
#                               # TSan, and a chaos-bench A/B with the four
#                               # real_io counter keys validated (nonzero
#                               # under storm, exactly zero calm)
# Any extra arguments are forwarded to ctest.
set -eu

cd "$(dirname "$0")/.."

mode="${1:-default}"
[ $# -gt 0 ] && shift

case "$mode" in
  default)
    preset=default; test_preset=default ;;
  asan)
    preset=asan; test_preset=asan ;;
  faults)
    preset=default; test_preset=faults ;;
  obs)
    preset=default; test_preset=obs ;;
  recovery)
    preset=default; test_preset=recovery ;;
  tsan)
    preset=tsan; test_preset=tsan ;;
  perf)
    preset=perf; test_preset="" ;;
  serve)
    preset=default; test_preset=serve ;;
  spill)
    preset=default; test_preset="" ;;
  chaos)
    preset=default; test_preset=chaos ;;
  *)
    echo "usage: scripts/check.sh" \
         "[default|asan|faults|obs|recovery|tsan|perf|serve|spill|chaos]" \
         "[ctest args...]" >&2
    exit 2 ;;
esac

cmake --preset "$preset"
if [ "$mode" = perf ]; then
  # perf only needs the throughput bench, not the full tree.
  cmake --build --preset perf -j "$(nproc)" --target bench_engine_throughput
else
  cmake --build --preset "$preset" -j "$(nproc)"
fi
if [ -n "$test_preset" ]; then
  ctest --preset "$test_preset" -j "$(nproc)" "$@"
fi

if [ "$mode" = perf ]; then
  # Real wall-clock throughput: every wide operator with the execution pool
  # off and on, items/second reported by google-benchmark and the per-run
  # wall numbers carried in the metrics JSON. Validated for schema, for both
  # pool arms being present, and for sane (positive) wall measurements.
  out_dir="build-perf/perf-check"
  mkdir -p "$out_dir"
  build-perf/bench/bench_engine_throughput \
    --benchmark_min_time=0.05 \
    --benchmark_min_warmup_time=0 \
    --metrics-json="$out_dir/metrics.json"
  python3 - "$out_dir/metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "matryoshka-bench-metrics-v1", doc["schema"]
assert doc["runs"], "no runs recorded"
arms = set()
budget_arms = set()
for run in doc["runs"]:
    name = run["name"]
    assert name.startswith("throughput/"), name
    arms.add(name.rsplit("/", 1)[-1])
    parts = name.split("/")
    if parts[1] == "budget":
        # throughput/budget/<op>/<budget arm>/<pool arm>
        assert parts[3] in ("unbounded", "bounded4mb"), name
        budget_arms.add(parts[3])
        m = run["metrics"]
        for key in ("real_spilled_bytes", "real_spill_events",
                    "real_spill_runs"):
            assert key in m, f"missing {key} in {name}"
        if parts[3] == "unbounded":
            assert m["real_spilled_bytes"] == 0, name
        else:
            # The budgeted arm ran an input larger than its budget: it must
            # have really spilled.
            assert m["real_spilled_bytes"] > 0, name
            assert m["real_spill_events"] > 0, name
    if parts[1] == "iteration":
        # throughput/iteration/countdown/<pool arm>: the loop really ran
        # in-engine, so all three iteration counters must have moved.
        m = run["metrics"]
        assert m["native_iterations"] > 0, name
        assert m["convergence_checks_in_engine"] > 0, name
        assert m["hoisted_broadcast_reuses"] > 0, name
    wall = run["wall"]
    assert wall["real_s"] > 0, name
    assert wall["elements"] > 0, name
    assert wall["elements_per_s"] > 0, name
assert arms == {"pool0", "pool1"}, arms
assert budget_arms == {"unbounded", "bounded4mb"}, budget_arms
print("ok:", sys.argv[1], f"({len(doc['runs'])} runs validated)")
EOF
  # The parallel kernel must also be clean under ThreadSanitizer.
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  ctest --preset tsan -j "$(nproc)" "$@"
fi

if [ "$mode" = spill ]; then
  # External execution determinism contract: the whole spill+faults suite
  # must pass with a tiny real memory budget forced process-wide, pushing
  # EVERY wide operator through the spilling scatter and out-of-core
  # aggregation paths (the env override only applies to configs that left
  # the budget at 0/unbounded; tests with explicit budget arms are
  # unaffected by design). 4096 bytes divides into single-digit per-worker
  # quotas, so flushes happen on nearly every element.
  budget=4096
  echo "== spill: budget=$budget, default preset =="
  MATRYOSHKA_REAL_BUDGET="$budget" ctest --preset spill -j "$(nproc)" "$@"
  # Spill-file IO and cleanup must be clean under ASan/UBSan (leak checking
  # catches descriptor-lifetime bugs as buffer leaks).
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)"
  echo "== spill: budget=$budget, asan =="
  MATRYOSHKA_REAL_BUDGET="$budget" ctest --preset spill-asan -j "$(nproc)" "$@"
  # The external scatter/merge kernel must also be clean under
  # ThreadSanitizer — forced and unbounded.
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  echo "== spill: budget=$budget, tsan =="
  MATRYOSHKA_REAL_BUDGET="$budget" ctest --preset spill-tsan -j "$(nproc)" "$@"
  echo "== spill: unbounded, tsan =="
  ctest --preset spill-tsan -j "$(nproc)" "$@"
fi

if [ "$mode" = chaos ]; then
  # The real-fault contract: first the chaos suite proper (explicit
  # per-test plans: hard faults, degradation policies, determinism sweeps),
  # which already ran above via test_preset=chaos. Then force a RECOVERABLE
  # real-IO storm process-wide — transient EIO plus short transfers at 20%
  # per site — together with a tiny real budget, and require the whole
  # spill+faults suite to still pass bit-identically: the hardened IO layer
  # must absorb every injected fault without changing one byte of output.
  # (The env storm only applies to configs whose own RealFaultPlan is
  # inactive, and never arms ENOSPC/corruption/alloc faults by design.)
  storm="0.2:2021"
  budget=4096
  echo "== chaos: storm=$storm budget=$budget, default preset =="
  MATRYOSHKA_REAL_FAULTS="$storm" MATRYOSHKA_REAL_BUDGET="$budget" \
    ctest --preset spill -j "$(nproc)" "$@"
  # The retry/backoff/short-transfer loops must be clean under ASan/UBSan.
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)"
  echo "== chaos: storm=$storm budget=$budget, asan =="
  MATRYOSHKA_REAL_FAULTS="$storm" MATRYOSHKA_REAL_BUDGET="$budget" \
    ctest --preset chaos-asan -j "$(nproc)" "$@"
  # Concurrent fault draws and the degradation paths must be TSan-clean.
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  echo "== chaos: tsan =="
  ctest --preset chaos-tsan -j "$(nproc)" "$@"
  echo "== chaos: storm=$storm, tsan =="
  MATRYOSHKA_REAL_FAULTS="$storm" ctest --preset chaos-tsan -j "$(nproc)" "$@"
  # End-to-end A/B: the chaos bench arm, calm vs storm, with the four
  # real_io counter keys validated in the metrics JSON — nonzero where the
  # storm must have injected and recovered, exactly zero on the calm arm.
  out_dir="build/chaos-check"
  mkdir -p "$out_dir"
  build/bench/bench_engine_throughput \
    --benchmark_filter='BM_ShuffleGroup_Chaos' \
    --benchmark_min_time=0.02 \
    --benchmark_min_warmup_time=0 \
    --metrics-json="$out_dir/metrics.json" >/dev/null
  python3 - "$out_dir/metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "matryoshka-bench-metrics-v1", doc["schema"]
arms = set()
keys = ("real_io_faults_injected", "real_io_retries", "checksum_failures",
        "inmemory_fallbacks")
for run in doc["runs"]:
    name = run["name"]
    if not name.startswith("throughput/chaos/"):
        continue
    # throughput/chaos/<op>/<storm arm>/<pool arm>
    arm = name.split("/")[3]
    arms.add(arm)
    m = run["metrics"]
    for key in keys:
        assert key in m, f"missing {key} in {name}"
    assert run["ok"], f"{name} did not recover"
    if arm == "calm":
        for key in keys:
            assert m[key] == 0, f"{name}: {key}={m[key]} on the calm arm"
    else:
        assert m["real_io_faults_injected"] > 0, name
        assert m["real_io_retries"] > 0, name
        assert m["inmemory_fallbacks"] > 0, name
assert arms == {"calm", "storm"}, arms
print("ok:", sys.argv[1], "(chaos A/B counters validated)")
EOF
fi

if [ "$mode" = recovery ]; then
  # The recovery contract must also hold under the sanitizers.
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)"
  ctest --preset recovery-asan -j "$(nproc)" "$@"
  # End-to-end: the recovery A/B bench with --metrics-json on, validated as
  # JSON and carrying the matryoshka-bench-metrics-v1 schema with the
  # recovery counters present.
  out_dir="build/recovery-check"
  mkdir -p "$out_dir"
  build/bench/bench_recovery \
    --benchmark_min_warmup_time=0 \
    --metrics-json="$out_dir/metrics.json" >/dev/null
  python3 - "$out_dir/metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "matryoshka-bench-metrics-v1", doc["schema"]
assert doc["runs"], "no runs recorded"
for run in doc["runs"]:
    m = run["metrics"]
    for key in ("checkpoints_written", "checkpoint_bytes", "driver_retries",
                "plan_fallbacks", "recovery_time_s"):
        assert key in m, f"missing {key} in {run['name']}"
    # A checkpoint writes real bytes: a zero-byte one means the policy
    # fired on an empty bag.
    if m["checkpoints_written"] > 0:
        assert m["checkpoint_bytes"] > 0, run["name"]
print("ok:", sys.argv[1])
EOF
fi

if [ "$mode" = serve ]; then
  # The serving isolation contract must also hold under ThreadSanitizer:
  # the same suite runs with real concurrency on the shared pool.
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  ctest --preset serve-tsan -j "$(nproc)" "$@"
  # End-to-end: the open-loop serving load bench with --metrics-json on,
  # validated for the v1 schema plus the additive latency fields.
  out_dir="build/serve-check"
  mkdir -p "$out_dir"
  build/bench/bench_serving \
    --benchmark_min_time=0.01 \
    --benchmark_min_warmup_time=0 \
    --metrics-json="$out_dir/metrics.json" >/dev/null
  python3 - "$out_dir/metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "matryoshka-bench-metrics-v1", doc["schema"]
assert doc["runs"], "no runs recorded"
cache_arms = set()
for run in doc["runs"]:
    name = run["name"]
    assert name.startswith("serving/"), name
    if name.startswith("serving/sustained/"):
        cache_arms.add(name.rsplit("/", 1)[-1])
    wall = run["wall"]
    assert wall["real_s"] > 0, name
    assert wall["requests_per_s"] > 0, name
    assert 0 < wall["p50_s"] <= wall["p99_s"], name
assert cache_arms == {"cache", "nocache"}, cache_arms
print("ok:", sys.argv[1], f"({len(doc['runs'])} runs)")
EOF
fi

if [ "$mode" = obs ]; then
  # End-to-end: one bench with the observability flags on, both outputs
  # validated as JSON.
  out_dir="build/obs-check"
  mkdir -p "$out_dir"
  build/bench/bench_ablation_partitions \
    --trace="$out_dir/trace.json" \
    --metrics-json="$out_dir/metrics.json" >/dev/null
  for f in "$out_dir/trace.json" "$out_dir/metrics.json"; do
    [ -s "$f" ] || { echo "missing $f" >&2; exit 1; }
    python3 -m json.tool "$f" >/dev/null
    echo "ok: $f"
  done
fi
