#!/usr/bin/env python3
"""Run the benchmark on seeds 1-10 per workload and report the spread.

For each workload in BENCHMARK.json it runs the command once per seed,
then prints, for every end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. It also lists each run's host CPU steal. Run it from the
root of the repository:

    python3 perfbench/steadiness.py

Every run's result line is appended to .bench_out/steadiness.jsonl.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    steal = re.search(r"env\.steal_pct = ([0-9.]+)", proc.stderr)
    result["steal_pct"] = float(steal.group(1)) if steal else None
    result["elapsed_s"] = elapsed
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.makedirs(".bench_out", exist_ok=True)
    log = open(os.path.join(".bench_out", "steadiness.jsonl"), "a")

    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in SEEDS:
            r = run_once(bench["command"], workload, seed, bench["run_seconds"])
            r.update(workload=workload, seed=seed)
            log.write(json.dumps(r) + "\n")
            log.flush()
            results.append(r)
            print(f"  {workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} "
                  f"steal={r['steal_pct']}% {r['elapsed_s']:.1f}s", flush=True)
        print(f"\n{workload} (seeds {SEEDS.start}..{SEEDS.stop - 1})")
        print("| metric | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"| {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {m['bound']} |")
        steals = ", ".join(f"{r['steal_pct']:.1f}" for r in results
                           if r["steal_pct"] is not None)
        wall = sum(r["elapsed_s"] for r in results)
        print(f"\nsteal % per run: {steals}; wall {wall:.0f} s\n", flush=True)


if __name__ == "__main__":
    main()
