#!/usr/bin/env sh
# Turns one benchmark run into a BENCH_<name>.json snapshot for the perf
# trajectory: runs the binary with --metrics-json, validates the output, and
# drops it next to the repo root (override with -o). The snapshot carries one
# record per benchmark run — status, the full simulated Metrics (including
# the additive real-spill counters real_spilled_bytes / real_spill_events /
# real_spill_runs), the observability time breakdown of traced runs, and the
# "wall" stats of wall-clock runs, which carry no breakdown (see
# bench/bench_util.h for the schema; arm-specific assertions live in
# scripts/check.sh perf mode).
#
# Usage:
#   scripts/bench_to_json.sh <bench-binary> [-o OUT.json] [bench args...]
# Examples:
#   scripts/bench_to_json.sh bench_fig1_kmeans_motivation
#   scripts/bench_to_json.sh bench_faults -o BENCH_faults.json --faults=0.05
set -eu

cd "$(dirname "$0")/.."

[ $# -ge 1 ] || {
  echo "usage: scripts/bench_to_json.sh <bench-binary> [-o OUT.json] [args...]" >&2
  exit 2
}
bench="$1"; shift

out=""
if [ "${1:-}" = "-o" ]; then
  out="$2"; shift 2
fi
[ -n "$out" ] || out="BENCH_${bench#bench_}.json"

binary="build/bench/$bench"
[ -x "$binary" ] || {
  echo "$binary not built; run: cmake --preset default && cmake --build --preset default -j" >&2
  exit 1
}

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

"$binary" --metrics-json="$tmp" "$@" >&2
python3 -m json.tool "$tmp" >/dev/null
mv "$tmp" "$out"
trap - EXIT
echo "wrote $out"
