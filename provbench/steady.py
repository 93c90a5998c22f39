"""Steadiness check: repeat each workload and report every metric's spread.

Run from the root of a checkout::

    python3 provbench/steady.py --runs 10 [--first-seed 1]

Each workload of ``BENCHMARK.json`` runs ``--runs`` times, one process
per run with seeds ``first-seed .. first-seed+runs-1``, the run length
from ``BENCHMARK.json`` and ``--trace 0``.  For every end-to-end metric
it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread — the
interquartile distance as a share of the median — next to the
metric's bound, flagging any spread above a third of it.  The
host's CPU count, Python version and a fixed CPU calibration score
head the report, so figures from different hosts can be told apart,
and each run's line shows the share of CPU time the hypervisor stole
meanwhile (from ``/proc/stat``).
The last line of standard output is the whole report as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

CALIBRATION_ROUNDS = 200_000


def calibration_score() -> float:
    """Fixed CPU work per second: hashing and sorting, best of three."""
    best = float("inf")
    for _attempt in range(3):
        started = time.perf_counter()
        digest = b"provbench"
        values = []
        for index in range(CALIBRATION_ROUNDS):
            digest = hashlib.sha256(digest).digest()
            values.append((digest[0] * 7919 + index) % 65521)
        values.sort()
        best = min(best, time.perf_counter() - started)
    return CALIBRATION_ROUNDS / best


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def _cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the host's CPUs (Linux; else zeros)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    workloads = [entry["name"] for entry in bench["workloads"]]
    bounds = {entry["name"]: entry["bound"] for entry in bench["end_to_end"]}
    report = {
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "calibration_ops_per_s": round(calibration_score()),
        },
        "runs": args.runs,
        "seconds": bench["run_seconds"],
        "workloads": {},
    }
    print(f"# host {report['host']}")
    for workload in workloads:
        results = []
        steal_shares = []
        for offset in range(args.runs):
            started = time.perf_counter()
            steal_before, total_before = _cpu_ticks()
            results.append(
                run_once(bench["command"], workload, args.first_seed + offset,
                         bench["run_seconds"])
            )
            steal_after, total_after = _cpu_ticks()
            steal_shares.append(
                (steal_after - steal_before)
                / max(1, total_after - total_before)
            )
            print(f"# {workload} seed {args.first_seed + offset}:"
                  f" {time.perf_counter() - started:.1f}s wall,"
                  f" steal {steal_shares[-1]:.1%}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        entry = {
            "correct": all(r["correct"] for r in results),
            "failed_shares": shares,
            # Share of the host's CPU time stolen by its hypervisor during
            # each run: a slow run with high steal is the host, not the
            # program.
            "steal_shares": steal_shares,
            "metrics": {},
        }
        print(f"## {workload}: correct={entry['correct']}"
              f" failed shares={shares}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            bound = bounds[name]
            flag = "" if share < bound / 3 else "  <-- wide"
            entry["metrics"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": share,
                "bound": bound, "unit": results[0]["metrics"][name]["unit"],
                "values": values,
            }
            print(f"{name:42s} median {median:12.4f} q1 {q1:12.4f}"
                  f" q3 {q3:12.4f} spread {share:7.4f}"
                  f" bound {bound}{flag}")
        report["workloads"][workload] = entry
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
