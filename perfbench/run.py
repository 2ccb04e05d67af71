"""lemlab benchmark: four closed-loop workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload sim_n100 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process

Run from the root of a source checkout; lemlab is imported from `src/`.
`--trace 0` times the workload untraced and reports the end-to-end
metrics.  `--trace 1` runs it untraced for half the time, replays the
same trials with a span around every call into lemlab, checks that the
replay reproduced every per-trial record, and reports the per-layer
metrics.  Every run first checks the seed-0 reference trials and then
the model's invariants on every trial it made; it exits with 1 when a
check fails or any trial fails.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Run metadata, the tail
percentile and the spans go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "lemlab").is_dir():
    sys.exit("perfbench: no src/lemlab under %s; run from a lemlab source checkout" % ROOT)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import OutputError, make_workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_out"


def run_metadata(seed):
    def sysconf(name):
        try:
            value = os.sysconf(name)
        except (ValueError, OSError):
            return None
        return value if value > 0 else None

    cpu, cpuinfo_cache = platform.processor() or None, None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and cpu in (None, platform.machine()):
                    cpu = value.strip()
                elif key.strip() == "cache size" and cpuinfo_cache is None:
                    cpuinfo_cache = value.strip()
    except OSError:
        pass
    caches = {level: sysconf("SC_LEVEL%s_CACHE_SIZE" % level.upper())
              for level in ("1d", "2", "3")}
    pages, page_size = sysconf("SC_PHYS_PAGES"), sysconf("SC_PAGE_SIZE")

    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cache_bytes": caches,
        "cpuinfo_cache_size": cpuinfo_cache,
        "ram_bytes": pages * page_size if pages and page_size else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),  # importing it would add to peak RSS
        **git_revision(),
        "seed": seed,
    }


def git_revision():
    """Revision and dirty flag when ROOT is the top of a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            raise ValueError("not the checkout's own repository")
        return {"git_revision": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, ValueError, subprocess.SubprocessError):
        return {"git_revision": None, "git_dirty": None}


def reset_peak_rss():
    """Start a new peak-RSS window, so that with `--workload all` each
    workload reports its own peak (Linux: clear_refs 5 resets VmHWM)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb():
    """Peak resident set of this process since the last reset."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def probe_setup(workload_name, seed):
    """Seconds from starting a fresh interpreter until it is ready to time
    the workload's first trial: imports plus the workload's warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload_name, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError("set-up probe for %s failed (exit %s)" % (workload_name, code))
    return elapsed


def timed_loop(workload, batches, seconds, min_trials):
    """Run batches until `seconds` have passed and `min_trials` trials are
    done; returns (outcomes, batch specs run, [(trials, wall seconds)] of
    each batch)."""
    outcomes, specs, walls = [], [], []
    start = time.perf_counter()
    for spec in batches:
        if time.perf_counter() - start >= seconds and len(outcomes) >= min_trials:
            break
        got, w = workload.run_batch(spec)
        outcomes.extend(got)
        specs.append(spec)
        walls.append((len(got), w))
    return outcomes, specs, walls


def run_traced(workload, tracer, specs):
    """Replay `specs` with spans around every call into lemlab."""
    outcomes, wall = [], 0.0
    with tracer.patched(workload.trace_targets()):
        for spec in specs:
            got, w = workload.traced_batch(tracer, spec)
            outcomes.extend(got)
            wall += w
    return outcomes, wall


def run_workload(workload, seed, seconds, trace):
    """(result dict, error strings) of one workload run."""
    errors = []
    reset_peak_rss()
    result = {"workload": workload.name, "loop": "closed", "threads": workload.threads,
              "trace": trace}
    setup_samples = []
    if not trace:
        setup_samples = [probe_setup(workload.name, seed)
                         for _ in range(workload.setup_probes)]
    setup = workload.setup()
    errors += checks.compare_reference(
        workload.name, checks.run_reference(workload), checks.load_reference())
    if not trace:
        outcomes, _, walls = timed_loop(workload, workload.batches(seed), seconds,
                                        workload.min_trials)
        errors += workload.check(outcomes)
        if all(math.isnan(o.ms) for o in outcomes):
            raise OutputError("%s: no trial ran to the end" % workload.name)
        values, basis = metrics.end_to_end(outcomes, walls, workload.window_trials,
                                           setup_samples, peak_rss_mb())
        result.update(basis)
    else:
        untraced, specs, walls = timed_loop(
            workload, workload.batches(seed), seconds / 2.0, 1)
        untraced_wall = sum(w for _, w in walls)
        workload.reset()
        tracer = Tracer()
        traced, traced_wall = run_traced(workload, tracer, specs)
        errors += checks.compare_replay(untraced, traced)
        errors += workload.check(untraced)
        selfs = self_times(tracer.spans)
        values = metrics.per_layer(tracer.spans, selfs, traced, untraced_wall,
                                   traced_wall, setup)
        spans_path = OUT_DIR / ("%s.spans.jsonl" % workload.name)  # latest traced run
        tracer.write_jsonl(spans_path, selfs)
        result.update({"spans": len(tracer.spans), "spans_path": str(spans_path),
                       "wall_s": untraced_wall, "traced_wall_s": traced_wall})
        outcomes = untraced
    failures, failure_errors = checks.failures(workload.name, outcomes)
    errors += failure_errors
    result.update({
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "failed_fraction": sum(failures.values()) / len(outcomes),
        "failure_reasons": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "errors": errors,
    })
    return result, errors


def print_report(result, out):
    print("# %s (%s loop, %d thread%s, trace %d): attempted %d, failed %d (%.4g)"
          % (result["workload"], result["loop"], result["threads"],
             "" if result["threads"] == 1 else "s", result["trace"],
             result["attempted"], result["failed"], result["failed_fraction"]), file=out)
    if "tail_percentile" in result:
        print("#   %d timed trials, set-up probes %s"
              % (result["samples"], ", ".join("%.3f s" % s for s in result["setup_samples"])),
              file=out)
        print("#   %-40s %14.6g ms (p%g, not bounded)" % (
            "trial_ms_tail", result["trial_ms_tail"], result["tail_percentile"]), file=out)
    for name, m in result["metrics"].items():
        print("#   %-40s %14.6g %s" % (name, m["value"], m["unit"]), file=out)
    for err in result["errors"][:20]:
        print("#   CHECK FAILED: %s" % err, file=out)
    if len(result["errors"]) > 20:
        print("#   ... and %d more failed checks" % (len(result["errors"]) - 20), file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from the current program")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    OUT_DIR.mkdir(exist_ok=True)
    workloads = make_workloads(str(OUT_DIR), os.cpu_count() or 1)
    if args.workload != "all" and args.workload not in workloads:
        parser.error("unknown workload %r (choose from %s or all)"
                     % (args.workload, ", ".join(workloads)))
    if args.probe_setup:
        workloads[args.workload].setup()
        print("ready", flush=True)
        return 0
    if args.write_reference:
        checks.write_reference(workloads)
        return 0

    names = list(workloads) if args.workload == "all" else [args.workload]
    meta = run_metadata(args.seed)
    print("# meta " + json.dumps(meta, sort_keys=True))
    results, all_errors = [], []
    try:
        for name in names:
            tag = "%s-seed%d-trace%d" % (name, args.seed, args.trace)
            result, errors = run_workload(workloads[name], args.seed, args.seconds,
                                          args.trace)
            result["meta"] = meta
            with open(OUT_DIR / ("%s.json" % tag), "w") as fh:
                json.dump(result, fh, indent=1)
            print_report(result, sys.stdout)
            results.append(result)
            all_errors += errors
    except OutputError as exc:
        print("# CHECK FAILED: %s" % exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        out_metrics = results[0]["metrics"]
    else:
        out_metrics = {"%s.%s" % (r["workload"], k): v
                       for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": not all_errors,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": out_metrics,
    }))
    return 0 if not all_errors else 1


if __name__ == "__main__":
    sys.exit(main())
