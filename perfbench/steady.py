#!/usr/bin/env python3
"""Steadiness report: runs one workload k times back to back and prints,
for every metric, the median, the quartiles and the quartile spread as a
share of the median, plus the CPU steal share of each run.

    python3 perfbench/steady.py --workload serve-mix --runs 10 --seconds 20
    python3 perfbench/steady.py --workload scale-part --runs 5 --traced

Run from the repository root. Each run uses its own seed (first-seed,
first-seed + 1, ...), as the benchmark's bounds are meant to hold across
seeds. With --traced every seed is also run with --trace 1, and the
report adds the tracing overhead: how much slower the traced pass moves
gates than the untraced one. Steal is read from /proc/stat; it is a
diagnostic of the machine, not a metric.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def steal_counters():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return None
    values = [int(v) for v in fields]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values)


def run_once(command, workload, seed, seconds, trace):
    before = steal_counters()
    proc = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    after = steal_counters()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    return result, steal


def summary(name, values, unit):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("nan")
    print(f"  {name:<28} median {med:14.6g} {unit:<8} q1 {q1:14.6g}  q3 {q3:14.6g}"
          f"  spread {100 * spread:6.2f} %")
    return med


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = manifest["command"]
    seconds = args.seconds or manifest["run_seconds"]

    passes = [False, True] if args.traced else [False]
    medians = {}
    for trace in passes:
        label = "traced" if trace else "untraced"
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, steal = run_once(command, args.workload, seed, seconds, trace)
            results.append(result)
            share = result["failed"] / result["attempted"]
            steal_text = "n/a" if steal is None else f"{100 * steal:.1f} %"
            print(f"{args.workload} {label} seed {seed}: correct {result['correct']}"
                  f"  attempted {result['attempted']}  failed {result['failed']}"
                  f" ({100 * share:.3f} %)  steal {steal_text}", flush=True)
        print(f"{args.workload} {label}, {args.runs} runs of {seconds} s:")
        for name, metric in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            medians[name] = summary(name, values, metric["unit"])
    if args.traced and medians.get("gates_per_s"):
        overhead = 1 - medians["trace.gates_per_s"] / medians["gates_per_s"]
        print(f"  tracing overhead (gates/s, traced vs untraced medians): {100 * overhead:.1f} %")


if __name__ == "__main__":
    main()
