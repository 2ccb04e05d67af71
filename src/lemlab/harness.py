"""Experiment harness: config, deterministic parallel trials, CSV output.

`run_trial(config, k, stream_base)` is one simulate trial on substream
`stream_base + k` of the master seed, and `run_trials(config,
stream_base)` runs trials 0 .. trials-1 on a thread pool.  `simulate`
uses substreams from 0, and `scaling` gives each n its own block from
`n << 32`, so its rows are independent.  Each trial is a pure function
of (master_seed, substream), so any thread arrangement produces the
same records.  Records are collected in trial order, written in one
pass and summarized by `mean_and_se` over that same list.  Outputs
are therefore byte-identical across thread counts (timing column
aside, which --no-timing zeroes).
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from .analytic import limit_constant
from .components import annulus_inner_radius, area_outside_mc, count_components, inradius_holds
from .critical import find_critical_points
from .polyeval import RootedPolynomial
from .raster import MAX_PIXELS
from .rng import derive_substream, sample_disc_array

CSV_HEADER = (
    "trial,n,components,components_annulus,n_crit_outside,"
    "area_outside_est,max_residual,inradius_ok,wall_micros"
)

#: abort threshold on the fraction of failed trials
FAILURE_ABORT_FRACTION = 1e-3


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class NumericFailureError(RuntimeError):
    """Too many failed trials or a violated numeric contract (exit 3)."""


@dataclass
class ExperimentConfig:
    command: str = "simulate"
    n: int = 100
    trials: int = 100
    master_seed: int = 0
    kappa: float = 2.0
    threads: int = 0
    resolution: int = 512
    bound: float = 1.25
    eps: float = 1e-3
    grid: int = 512
    r: float = 0.9
    a: float = 200.0
    b: float = 2000.0
    c_n: float = 0.0
    q1: bool = False
    mode: str = "epsint"
    out_path: str = ""
    area_samples: int = 1024
    no_timing: bool = False
    dump_crit: bool = False
    n_list: tuple = ()

    def validate(self):
        checks = [
            (self.n >= 1, "n >= 1"),
            (all(k >= 1 for k in self.n_list), "n_list entries >= 1"),
            (self.trials >= 1, "trials >= 1"),
            (self.kappa > 0, "kappa > 0"),
            (self.threads >= 0, "threads >= 0"),
            (self.resolution >= 64, "resolution >= 64"),
            (self.resolution**2 <= MAX_PIXELS, "resolution^2 <= %d" % MAX_PIXELS),
            (self.bound > 1.0, "bound > 1"),
            (self.eps > 0, "eps > 0"),
            (self.grid >= 256, "grid >= 256"),
            (self.area_samples >= 1, "area_samples >= 1"),
            (self.master_seed >= 0, "master_seed >= 0"),
        ]
        for ok, what in checks:
            if not ok:
                raise ConfigError("config violates %s" % what)
        if self.command == "scaling" and len(self.n_list) < 2:
            raise ConfigError("scaling needs at least two n values")
        if self.dump_crit and not self.out_path:
            raise ConfigError("dump_crit needs out_path")
        return self


def parse_seed(text):
    """Seed as decimal or 0x-prefixed hex."""
    text = text.strip()
    try:
        if text.lower().startswith("0x"):
            return int(text, 16)
        return int(text, 10)
    except ValueError as exc:
        raise ConfigError("bad seed %r (decimal or 0x hex)" % text) from exc


def claim_output(path):
    """Create `path` (or open it intact) so an unwritable output fails early."""
    if path:
        open(path, "a").close()


def read_config_file(path):
    """Plain key=value lines; '#' starts a comment."""
    values = {}
    known = set(ExperimentConfig.__dataclass_fields__)
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc) from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key=value" % (path, lineno))
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
        values[key] = val
    return values


# ------------------------------------------------------------------ trials


@dataclass
class TrialRecord:
    trial_index: int
    n: int
    components: int = 0
    components_annulus: int = 0
    n_crit_outside: int = 0
    area_outside_est: float = 0.0
    max_residual: float = 0.0
    inradius_ok: bool = False
    wall_micros: int = 0
    failed: bool = False
    fail_reason: str = ""

    def csv_row(self):
        return "%d,%d,%d,%d,%d,%r,%r,%d,%d" % (
            self.trial_index,
            self.n,
            self.components,
            self.components_annulus,
            self.n_crit_outside,
            self.area_outside_est,
            self.max_residual,
            1 if self.inradius_ok else 0,
            self.wall_micros,
        )


def run_trial(config, trial_index, stream_base=0):
    """One full simulate trial on substream stream_base + trial_index.

    Returns (record, poly, crit); crit is None when the trial failed.
    Never raises on solver failure.
    """
    t0 = time.perf_counter_ns()
    stream = derive_substream(config.master_seed, stream_base + trial_index)
    n = config.n
    roots = sample_disc_array(stream, n)
    poly = RootedPolynomial(roots)
    rec = TrialRecord(trial_index=trial_index, n=n)
    crit = find_critical_points(poly, stream=stream)
    if not crit.converged:
        rec.failed = True
        rec.fail_reason = "solver did not converge (max residual %g)" % crit.residuals.max()
        return rec, poly, None
    report = count_components(poly, crit, kappa=config.kappa)
    rec.components = report.components
    rec.components_annulus = report.components_annulus
    rec.n_crit_outside = report.n_crit_outside
    rec.max_residual = float(crit.residuals.max(initial=0.0))
    if annulus_inner_radius(n, config.kappa) > 0:
        rec.inradius_ok = inradius_holds(poly, config.kappa)
    else:
        rec.inradius_ok = True  # probed disc is empty: vacuously inside
    rec.area_outside_est = area_outside_mc(poly, config.area_samples, stream)
    if not config.no_timing:
        rec.wall_micros = (time.perf_counter_ns() - t0) // 1000
    return rec, poly, crit


def run_trials(config, stream_base=0):
    """All config.trials trials, trial k on substream stream_base + k.

    Runs under the configured thread count; returns the records in
    trial order (pool.map keeps its input order).
    """
    workers = config.threads if config.threads > 0 else (os.cpu_count() or 1)

    def job(k):
        rec, _, crit = run_trial(config, k, stream_base)
        if config.dump_crit and crit is not None:
            with open("%s.crit.%d.csv" % (config.out_path, k), "w") as fh:
                for p, res in zip(crit.points, crit.residuals):
                    fh.write("%r,%r,%r\n" % (float(p.real), float(p.imag), float(res)))
        return rec

    if workers <= 1 or config.trials == 1:
        return [job(k) for k in range(config.trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, range(config.trials)))


def mean_and_se(values):
    """Two-pass mean and standard error (ddof = 1; nan below two values)."""
    count = len(values)
    mean = sum(values) / count  # of integer counts: the correctly rounded k/N
    var = sum((x - mean) ** 2 for x in values) / (count - 1) if count > 1 else math.nan
    return mean, math.sqrt(var / count)


def run_simulate(config, out=sys.stdout):
    """The headline experiment: per-trial component counts plus summary."""
    config.validate()
    claim_output(config.out_path)
    records = run_trials(config)
    ok = [r for r in records if not r.failed]
    failed = [r for r in records if r.failed]
    if config.out_path:
        with open(config.out_path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for rec in ok:
                fh.write(rec.csv_row() + "\n")
        sidecar = config.out_path + ".failures"
        if failed:
            with open(sidecar, "w") as fh:
                for rec in failed:
                    fh.write("%d,%s\n" % (rec.trial_index, rec.fail_reason))
        elif os.path.exists(sidecar):
            os.remove(sidecar)  # a stale sidecar from an earlier run
    if ok:
        mean, se = mean_and_se([r.components for r in ok])
        scaled_mean = mean / math.sqrt(config.n)
        scaled_se = se / math.sqrt(config.n)
        lim = limit_constant()
        print("# simulate n=%d trials=%d seed=%d kappa=%g" % (
            config.n, config.trials, config.master_seed, config.kappa), file=out)
        print("# records=%d failures=%d" % (len(ok), len(failed)), file=out)
        print("# mean components        = %.6f (se %.6f)" % (mean, se), file=out)
        print("# mean components/sqrt n = %.6f (se %.6f)" % (scaled_mean, scaled_se), file=out)
        print("# limit constant         = %.10f (|diff| %.6f)" % (
            lim, abs(scaled_mean - lim)), file=out)
    if len(failed) > FAILURE_ABORT_FRACTION * config.trials:
        raise NumericFailureError(
            "%d/%d trials failed (threshold %.2g)"
            % (len(failed), config.trials, FAILURE_ABORT_FRACTION)
        )
    return records


#: scaling rows at n >= 100 must keep mean/sqrt(n) within 3 of their own
#: standard errors (0 for a single trial) of this bracket
SCALING_BRACKET = (0.2, 1.0)


def run_scaling(config, out=sys.stdout):
    """Component-count scaling across an n-list, with the sqrt(n) bracket.

    The table is printed and written to `out_path` before a row with too
    many solver failures, or outside the bracket, raises
    NumericFailureError.  A row with no successful trial reads nan.
    """
    config.validate()
    claim_output(config.out_path)
    rows = []
    table = ["n,trials,failures,mean_components,se,mean_over_sqrt_n,se_over_sqrt_n"]
    print("# scaling seed=%d trials=%d kappa=%g" % (
        config.master_seed, config.trials, config.kappa), file=out)
    print(table[0], file=out)
    for n in config.n_list:
        sub = replace(config, n=int(n), command="simulate")
        # substreams n << 32 onwards, so rows are independent
        records = run_trials(sub, int(n) << 32)
        ok = [r for r in records if not r.failed]
        failed = len(records) - len(ok)
        mean, se = mean_and_se([r.components for r in ok]) if ok else (math.nan, math.nan)
        sq = math.sqrt(n)
        row = (int(n), len(ok), failed, mean, se, mean / sq, se / sq)
        rows.append(row)
        table.append("%d,%d,%d,%r,%r,%r,%r" % row)
        print(table[-1], file=out)
    print("# limit constant = %.10f" % limit_constant(), file=out)
    if config.out_path:
        with open(config.out_path, "w") as fh:
            fh.write("\n".join(table) + "\n")
    for n, _, failed, _, _, scaled, scaled_se in rows:
        if failed > FAILURE_ABORT_FRACTION * config.trials:
            raise NumericFailureError("n=%d: %d failures" % (n, failed))
        slack = 0.0 if math.isnan(scaled_se) else 3.0 * scaled_se
        if n >= 100 and not (SCALING_BRACKET[0] - slack <= scaled <= SCALING_BRACKET[1] + slack):
            raise NumericFailureError(
                "n=%d: mean/sqrt(n)=%.4f (se %.4f) more than 3 se outside %s"
                % (n, scaled, scaled_se, SCALING_BRACKET)
            )
    return rows
