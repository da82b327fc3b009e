#!/usr/bin/env python3
"""Converts google-benchmark JSON (stdin) into the compact BENCH_*.json shape.

Usage: bench_to_json.py EXPERIMENT OUTFILE [--set-baseline]

Reads a full --benchmark_format=json report on stdin and writes OUTFILE:

    {
      "experiment": "E8",
      "generated_by": "scripts/run_experiments.sh",
      "num_cpus": 1,
      "cpu_model": "Intel(R) Xeon(R) Processor",
      "repetitions": 1,
      "series": [
        {"name": "BM_FrameworkRw/2/90/real_time",
         "items_per_second": 1720000.0,
         "read_p50_ns": 410, "read_p99_ns": 2100, ...}, ...
      ],
      "baseline": { ... }   # preserved from a previous OUTFILE, see below
    }

`cpu_model` is the first "model name" line of /proc/cpuinfo on the
machine that ran the conversion (null where there is none), and
`repetitions` the largest --benchmark_repetitions count among the runs:
with num_cpus, they say what a number was measured on and how often.

Each series entry carries items_per_second plus every user counter the
bench reported (latency percentiles, fast-path hit counts, mix shape).

Fast-path counters are NORMALIZED: `fast_admissions`/`fast_completions`
arrive from the bench as raw event counts, which scale with however many
iterations the bench harness happened to run — a ratio guard comparing raw
counts across runs silently passes on count drift. They are therefore
emitted as per-item ratios (`fast_admission_ratio`/`fast_completion_ratio`,
count / items processed, 1.0 = every item took the fast path), computed
from items_per_second x real_time x iterations.

The "baseline" key pins the pre-optimization numbers a regression check
compares against. It is PRESERVED verbatim from an existing OUTFILE on
every normal run; --set-baseline instead re-pins it to the numbers being
written now. Delete the file to start over.
"""
import json
import sys
from pathlib import Path


_TIME_UNIT_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def items_processed(b):
    """Total items a benchmark run processed, or None when underivable.

    google-benchmark JSON reports the rate (items_per_second) and the
    per-iteration real time, not the item count; count = rate x total time.
    """
    ips = b.get("items_per_second")
    real_time = b.get("real_time")
    iterations = b.get("iterations")
    unit = _TIME_UNIT_SECONDS.get(b.get("time_unit", "ns"))
    if not (ips and real_time and iterations and unit):
        return None
    return float(ips) * float(real_time) * unit * float(iterations)


def cpu_model():
    """The CPU's model name from /proc/cpuinfo, or None."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    return value.strip()
    except OSError:
        pass
    return None


def compact(report):
    """Full google-benchmark report -> {num_cpus, cpu_model, repetitions,
    series:[...]}."""
    series = []
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {"name": b["name"]}
        if "items_per_second" in b:
            entry["items_per_second"] = round(b["items_per_second"], 1)
        entry["real_time_ms"] = round(
            b["real_time"] if b.get("time_unit") == "ms"
            else b["real_time"] / 1e6, 4)
        for key, value in b.items():
            # Fast-path hit counts: emit per-item ratios, not raw counts
            # (raw counts track iteration count, so a guard on them cannot
            # distinguish "fast path broke" from "bench ran longer").
            if key in ("fast_admissions", "fast_completions"):
                items = items_processed(b)
                if items:
                    ratio_key = {"fast_admissions": "fast_admission_ratio",
                                 "fast_completions": "fast_completion_ratio"
                                 }[key]
                    entry[ratio_key] = round(float(value) / items, 4)
                continue
            # User counters are top-level float fields not in the standard
            # schema; keep the useful ones (percentiles, mix, fast-path).
            if key in ("threads", "read_pct", "methods",
                       "shed", "offered", "completed",
                       "sheds", "timeouts", "final_limit", "refused",
                       "rejected", "expired", "suppressed",
                       "allocs_per_op",
                       "goodput_fallback", "goodput_fenced", "goodput_ratio",
                       "shed_fallback",
                       "goodput", "parked_calls", "parked_bytes_per_call",
                       "blocked_calls", "blocked_bytes_per_call") \
                    or key.endswith("_ns") or key.endswith("_us"):
                entry[key] = round(float(value), 1)
        series.append(entry)
    runs = report.get("benchmarks", [])
    return {
        "num_cpus": report.get("context", {}).get("num_cpus"),
        "cpu_model": cpu_model(),
        "repetitions": max((b.get("repetitions", 1) for b in runs),
                           default=1),
        "series": series,
    }


def main():
    args = [a for a in sys.argv[1:] if a != "--set-baseline"]
    set_baseline = "--set-baseline" in sys.argv[1:]
    if len(args) != 2:
        sys.exit("usage: bench_to_json.py EXPERIMENT OUTFILE [--set-baseline]")
    experiment, outfile = args[0], Path(args[1])

    report = json.load(sys.stdin)
    out = {
        "experiment": experiment,
        "generated_by": "scripts/run_experiments.sh",
    }
    out.update(compact(report))

    if set_baseline:
        out["baseline"] = {key: out[key] for key in
                           ("num_cpus", "cpu_model", "repetitions", "series")}
    elif outfile.exists():
        try:
            prev = json.loads(outfile.read_text())
            if "baseline" in prev:
                out["baseline"] = prev["baseline"]
        except (json.JSONDecodeError, OSError):
            pass  # corrupt old file: just rewrite without a baseline

    outfile.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {outfile} ({len(out['series'])} series)")


if __name__ == "__main__":
    main()
