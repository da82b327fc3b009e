#!/usr/bin/env bash
# Regenerates every experiment series reported in EXPERIMENTS.md.
#
# Usage:  scripts/run_experiments.sh [build-dir]
#
# Runs each bench binary (E1–E13) and prints the rows EXPERIMENTS.md quotes,
# in the same order. Absolute numbers vary with the machine; the shapes
# (who wins, by what factor) are what the document's claims rest on.
#
# For the experiments the CI perf gate and the optimisation history track
# (E1, E5, E8, E11, E13-E17), the run additionally emits machine-readable
# snapshots — BENCH_E1.json, BENCH_E5.json, BENCH_E8.json, ... in the repo
# root — with
# items/s and the per-op latency percentiles. An existing "baseline" key in
# those files (the pinned pre-optimisation numbers) survives re-runs; pass
# --set-baseline to re-pin it to the numbers being generated now.
set -euo pipefail

SET_BASELINE=""
if [[ "${1:-}" == "--set-baseline" ]]; then
  SET_BASELINE="--set-baseline"
  shift
fi
BUILD=${1:-build}
BENCH="$BUILD/bench"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

if [[ ! -d "$BENCH" ]]; then
  echo "error: $BENCH not found — configure and build first:" >&2
  echo "  cmake -B $BUILD -G Ninja && cmake --build $BUILD" >&2
  exit 1
fi

run() { # run <binary> <header>
  local bin="$BENCH/$1"
  shift
  echo
  echo "==================== $* ===================="
  "$bin" --benchmark_color=false 2>/dev/null | grep -E "^BM_|^-{10}|^Benchmark"
}

run_json() { # run_json <binary> <experiment> <outfile> <header>
  local bin="$BENCH/$1" experiment="$2" outfile="$3"
  shift 3
  echo
  echo "==================== $* ===================="
  local tmp
  tmp="$(mktemp)"
  "$bin" --benchmark_color=false --benchmark_format=json \
      --benchmark_out_format=json 2>/dev/null > "$tmp"
  python3 "$ROOT/scripts/bench_to_json.py" "$experiment" "$outfile" \
      $SET_BASELINE < "$tmp"
  # Human-readable echo of the same numbers for the terminal log.
  python3 - "$tmp" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
for b in report.get("benchmarks", []):
    ips = b.get("items_per_second")
    rate = f"{ips/1e6:10.2f}M items/s" if ips else " " * 18
    print(f"{b['name']:<50} {rate}")
EOF
  rm -f "$tmp"
}

run_json bench_invocation_overhead E1 "$ROOT/BENCH_E1.json" \
  "E1 — moderation overhead per invocation"
run bench_aspect_scaling      "E2 — cost vs number of aspects"
run bench_contention          "E3 — contention: framework vs tangled"
run bench_extension_cost      "E4 — cost of adding a concern"
run_json bench_factory E5 "$ROOT/BENCH_E5.json" \
  "E5 — creation/registration rates"
run bench_scheduling          "E6 — scheduling: throughput + tail wait per class"
run bench_distribution        "E7 — local vs RPC vs simulated link"
run_json bench_readers_writer E8 "$ROOT/BENCH_E8.json" \
  "E8 — RW aspect vs shared_mutex"
run bench_ablation            "E9 — ablations (notification plan, kind order)"
run bench_store_saga          "E10 — multi-component saga vs hand-locked baseline"
run_json bench_multimethod E11 "$ROOT/BENCH_E11.json" \
  "E11 — multi-method scaling under the sharded lock"
run bench_fault_path          "E12 — fault-path overhead"
run_json bench_overload E13 "$ROOT/BENCH_E13.json" \
  "E13 — overload: goodput vs offered load, block vs shed"
run_json bench_hotpath E14 "$ROOT/BENCH_E14.json" \
  "E14 — hot-path cost teardown (per-stage ns + allocs/op)"
run_json bench_async E15 "$ROOT/BENCH_E15.json" \
  "E15 — async moderation: parked-call footprint + drain goodput"
run_json bench_persistence E16 "$ROOT/BENCH_E16.json" \
  "E16 — the price of durability (persistence on/off, WAL, replay)"
run_json bench_selfheal E17 "$ROOT/BENCH_E17.json" \
  "E17 — goodput through a device-flap storm (fallback vs fence-everything)"

echo
echo "All experiment series regenerated. Compare shapes against EXPERIMENTS.md;"
echo "machine-readable snapshots: BENCH_E1.json BENCH_E5.json BENCH_E8.json"
echo "BENCH_E11.json BENCH_E13.json BENCH_E14.json BENCH_E15.json"
echo "BENCH_E16.json BENCH_E17.json."
