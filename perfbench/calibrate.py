"""Repeat the benchmark over seeds, derive the end-to-end bounds, and
compare two sets of runs.

    python3 perfbench/calibrate.py --first-seed 100 --write-bounds
    python3 perfbench/calibrate.py --first-seed 200

Runs `run.py --trace 0` once per (seed, workload) for RUNS seeds and every
workload in BENCHMARK.json, cycling through the workloads for each seed
so that slow drift of the machine touches every workload alike.  For each workload
and end-to-end metric it reports the median and the spread, (q3 - q1) /
median over the runs, and appends the set, every value and the machine
description to perfbench/calibration.json (delete the file to start
over).  When the file then holds two or more sets, it compares the
medians of the last two, as a second set of runs of the same code would
be compared with the first, and exits with 1 if a median got worse by
more than its bound.

With --write-bounds it sets each metric's bound in BENCHMARK.json to
three times the largest spread in any set on any workload, at least
BOUND_FLOOR and at most BOUND_CAP.  setup_s gets BOUND_CAP, the largest
bound, because set-up time must have the largest bound.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
CALIBRATION = HERE / "calibration.json"
BOUND_FLOOR = 0.05
BOUND_CAP = 0.25
#: seeds per set: bounds rest on ten or more runs of each workload
RUNS = 10


def run_once(workload, seed, seconds):
    """(final JSON line, metadata, tail latency from the run's result file)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d):\n%s%s" % (
            workload, seed, proc.returncode, proc.stdout, proc.stderr))
    meta = next(json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta "))
    with open(ROOT / ".bench_out" / ("%s-seed%d-trace0.json" % (workload, seed))) as fh:
        tail = json.load(fh)["trial_ms_tail"]
    return json.loads(lines[-1]), meta, tail


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    return (second - first) / first if better == "lower" else (first - second) / first


def compare_sets(first, second, spec):
    """Print how the medians moved from `first` to `second`; return the
    (workload, metric) pairs that got worse by more than their bound."""
    print("\n%-14s %-16s %12s %12s %9s %6s" % (
        "workload", "metric", "median 1", "median 2", "worse by", "bound"))
    over = []
    for w, per in second["summary"].items():
        for metric in spec["end_to_end"]:
            m = metric["name"]
            a, b = first["summary"][w][m]["median"], per[m]["median"]
            worse = worsening(a, b, metric["better"])
            print("%-14s %-16s %12.5g %12.5g %8.2f%% %6.2f" % (
                w, m, a, b, 100 * worse, metric["bound"]))
            if worse > metric["bound"]:
                over.append((w, m))
    return over


def main(argv=None):
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--write-bounds", action="store_true")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    names = [m["name"] for m in spec["end_to_end"]]
    # the tail latency is reported by every run but has no bound
    values = {w: {m: [] for m in names + ["trial_ms_tail"]} for w in workloads}
    meta = None
    for i in range(RUNS):
        seed = args.first_seed + i
        for w in workloads:
            result, meta, tail = run_once(w, seed, seconds)
            if not result["correct"]:
                raise RuntimeError("%s seed %d: output check failed" % (w, seed))
            for m in names:
                values[w][m].append(result["metrics"][m]["value"])
            values[w]["trial_ms_tail"].append(tail)
            print("%-14s seed %-5d %s" % (w, seed, "  ".join(
                "%s=%.5g" % (m, v[-1]) for m, v in values[w].items())), flush=True)

    summary = {w: {m: {"median": statistics.median(v), "spread": quartile_spread(v)}
                   for m, v in per.items()} for w, per in values.items()}
    print("\n%-14s %-16s %12s %8s" % ("workload", "metric", "median", "spread"))
    for w, per in summary.items():
        for m, s in per.items():
            print("%-14s %-16s %12.5g %7.2f%%" % (w, m, s["median"], 100 * s["spread"]))
    sets = json.loads(CALIBRATION.read_text())["sets"] if CALIBRATION.exists() else []
    sets.append({"runs": RUNS, "first_seed": args.first_seed, "seconds": seconds,
                 "meta": meta, "summary": summary, "values": values})
    CALIBRATION.write_text(json.dumps({"sets": sets}, indent=1) + "\n")

    if args.write_bounds:
        for metric in spec["end_to_end"]:
            worst = max(s["summary"][w][metric["name"]]["spread"]
                        for s in sets for w in s["summary"])
            bound = math.ceil(300 * worst) / 100
            metric["bound"] = (BOUND_CAP if metric["name"] == "setup_s"
                               else min(BOUND_CAP, max(BOUND_FLOOR, bound)))
        BENCHMARK.write_text(json.dumps(spec, indent=2) + "\n")
        print("\nbounds: %s" % {m["name"]: m["bound"] for m in spec["end_to_end"]})
    if len(sets) >= 2:
        over = compare_sets(sets[-2], sets[-1], spec)
        if over:
            print("medians worse than their bound: %s" % over)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
