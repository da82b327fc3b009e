#!/usr/bin/env python3
"""Build and run the amf end-to-end benchmark (bench_end_to_end).

Run from anywhere inside a checkout; paths resolve against the checkout root.

  python3 bench/e2e/run.py --workload tickets-durable --seed 1 --seconds 20 --trace 0
      One run. Builds bench/e2e (CMake, Release) into .bench_build/e2e first,
      then prints the binary's output; its last line is the JSON result.

  python3 bench/e2e/run.py --sets 2 --runs 5 --seconds 20
      K sets of R runs of every workload, alternating the workload order
      between sets. Prints each metric's median and quartiles per set: the
      end-to-end ones and the request metrics (throughput, latency, ack)
      from the detail lines. Then whether every pair of consecutive sets
      agrees within the end-to-end bounds in BENCHMARK.json, where a set-up
      time change under 20 ms counts as agreement (exit 1 if not).

  python3 bench/e2e/run.py --smoke
      Every workload for 1 s (20k-commit preload), untraced and traced, with
      its self-check.
"""

import argparse
import fcntl
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "bench_end_to_end"
WORKLOADS = ["tickets-durable", "tickets-saturate", "reservations-browse",
             "tickets-handoff"]
# Set-up time changes smaller than this are noise, whatever their share.
SETUP_FLOOR_S = 0.020
# A request metric's detail line: "<name> over <n> one-second slices: ...".
SLICE_LINE = re.compile(r"^(\S+) over \d+ one-second slices: .* median (\S+) ")
REQUEST_METRICS = ["throughput_ops_s", "latency_p50_us", "latency_p99_us",
                   "ack_p50_us", "ack_p99_us"]


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: amf sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "e2e.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "bench_end_to_end", "-j", "2"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def binary_args(workload, seed, seconds, trace):
    args = [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--data-dir", str(BUILD / "data")]
    if trace:
        (BUILD / "trace").mkdir(exist_ok=True)
        args += ["--trace-out",
                 str(BUILD / "trace" / f"{workload}-seed{seed}.tsv")]
    return args


def run_once(workload, seed, seconds, trace):
    """One run; returns (stdout lines, parsed JSON) or raises."""
    out = subprocess.run(binary_args(workload, seed, seconds, trace),
                         capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: "
                           f"{out.stderr.strip()}")
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def agree(name, a, b, bound):
    """Whether two set medians agree within `bound` (a share of `a`)."""
    if name == "setup_s" and abs(b - a) < SETUP_FLOOR_S:
        return True
    return abs(b - a) < bound * abs(a)


def sets(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    # results[set][workload][metric] = [values]
    results = []
    header_printed = False
    for k in range(args.sets):
        order = WORKLOADS if k % 2 == 0 else list(reversed(WORKLOADS))
        per = {w: {} for w in WORKLOADS}
        for w in order:
            for r in range(args.runs):
                seed = 1 + k * args.runs + r
                lines, result = run_once(w, seed, seconds, 0)
                if not header_printed:
                    print("\n".join(l for l in lines
                                    if l.startswith("# ") and "workload" not in l))
                    header_printed = True
                if not result["correct"]:
                    sys.exit(f"run.py: {w} seed {seed} failed its self-check")
                values = {n: m["value"] for n, m in result["metrics"].items()}
                for line in lines:
                    if match := SLICE_LINE.match(line):
                        values[match[1]] = float(match[2])
                for name, value in values.items():
                    per[w].setdefault(name, []).append(value)
                print(f"set {k} {w} seed {seed}: " + ", ".join(
                    f"{n}={v:.6g}" for n, v in values.items()), flush=True)
        results.append(per)

    print(f"\n{args.runs} runs per workload per set, {seconds} s each; "
          "request metrics are per-layer (no bound)")
    print(f"{'workload':20} {'metric':18} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'iqr/med':>8} {'n':>3}")
    for w in WORKLOADS:
        for name in list(bounds) + REQUEST_METRICS:
            for k, per in enumerate(results):
                vals = per[w][name]
                med, q1, q3 = spread(vals)
                rel = (q3 - q1) / med if med else 0.0
                print(f"{w:20} {name:18} {k:>3} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {rel:8.4f} {len(vals):>3}")

    all_agree = True
    for k in range(1, len(results)):
        for w in WORKLOADS:
            for name, bound in bounds.items():
                a = spread(results[k - 1][w][name])[0]
                b = spread(results[k][w][name])[0]
                worse = (b - a) / a if better[name] == "lower" else (a - b) / a
                ok = agree(name, a, b, bound)
                all_agree = all_agree and ok
                print(f"sets {k - 1}->{k} {w:20} {name:18} "
                      f"change {(b - a) / a:+.4f} (worse by {worse:+.4f}), "
                      f"bound {bound}: {'agree' if ok else 'DISAGREE'}")
    return 0 if all_agree else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--sets", type=int, help="K sets of runs of every workload")
    p.add_argument("--runs", type=int, default=5, help="runs per workload per set")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    build()
    if args.smoke:
        return subprocess.run([str(BINARY), "--smoke", "--data-dir",
                               str(BUILD / "smoke-data")]).returncode
    if args.sets:
        return sets(args)
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    sys.stdout.flush()
    os.execv(str(BINARY), binary_args(args.workload, args.seed, args.seconds,
                                      args.trace))


if __name__ == "__main__":
    sys.exit(main())
