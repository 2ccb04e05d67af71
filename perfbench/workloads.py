"""The four benchmark workloads.

Each workload turns a seed into an endless, deterministic sequence of
batch specs and runs one batch at a time through lemlab's public
functions.  Every call into lemlab goes through a module attribute
(`rng.sample_disc_array`, `harness.run_simulate`, ...), so the traced
phase can swap those attributes for span-recording wrappers without
touching the program.

A batch returns one `Outcome` per trial: the trial's outputs with all
timing removed (`record`, compared between the untraced and the traced
phase), its latency in milliseconds, and whether it failed.
"""

from __future__ import annotations

import io
import math
import os
import re
import time
from dataclasses import dataclass

import numpy as np

from lemlab import analytic, components, critical, harness, heavytail, kacrice, polyeval, raster, rng

#: kappa for every workload: the simulate default and the criterion value
KAPPA = 2.0


@dataclass
class Outcome:
    key: tuple
    record: tuple
    ms: float
    failed: bool = False
    reason: str = ""
    #: raster_oracle only: did the pixel count equal the critical count
    agree: bool | None = None


def batch_master_seed(seed, batch):
    """Master seed of batch `batch`: distinct for every (seed, batch < 2**20)."""
    return (int(seed) << 20) | int(batch)


def _n_of(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# attrs_of callbacks: counts stored on each span
def _sample_attrs(args, kwargs, result):
    return {"points": int(_n_of(args, kwargs, 1, "count"))}


def _poly_attrs(args, kwargs, result):
    return {"n": result.n}


def _crit_attrs(args, kwargs, result):
    return {"n": args[0].n, "sweeps": result.iterations, "converged": result.converged}


def _count_attrs(args, kwargs, result):
    return {"pairs": len(args[1]) * args[0].n, "ambiguous": result.n_ambiguous}


def _inradius_attrs(args, kwargs, result):
    points = args[2] if len(args) > 2 else kwargs.get("boundary_points", 512)
    return {"pairs": int(points) * args[0].n}


def _area_attrs(args, kwargs, result):
    return {"pairs": int(_n_of(args, kwargs, 1, "samples")) * args[0].n}


def _raster_attrs(args, kwargs, result):
    return {"pixels": result.resolution * result.resolution}


def _on_event_attrs(args, kwargs, result):
    return {"sample_roots": int(args[2]) * int(args[0]), "degenerate": result.n_degenerate}


def _t0_attrs(args, kwargs, result):
    return {"degenerate": result.n_degenerate}


def _walk_attrs(args, kwargs, result):
    return {"increments": int(args[4]) * int(args[1])}


def _sim_trial_of(args, kwargs):
    return (args[0].master_seed, args[1])


class OutputError(ValueError):
    """The program wrote output the benchmark cannot accept."""


class Workload:
    name = ""
    threads = 1
    #: fewest trials a timed run records, so its tail percentile is stable
    min_trials = 1
    #: trials per throughput window, 0.6 to 2.5 s (see metrics.windowed_rate)
    window_trials = 1
    #: set-up probes per timed run; setup_s is their median
    setup_probes = 9

    def setup(self):
        """Warm-up that every user invocation pays; returns named timings."""
        return {}

    def reset(self):
        """Drop in-process caches filled by earlier batches."""

    def batches(self, seed):
        raise NotImplementedError

    def reference_specs(self):
        """Batch specs whose outputs are pinned in reference.json (seed 0)."""
        raise NotImplementedError

    def run_batch(self, spec):
        """(outcomes, wall seconds) of one batch."""
        raise NotImplementedError

    def check(self, outcomes):
        """Error strings for outputs that break an invariant of the model."""
        raise NotImplementedError

    def trace_targets(self):
        """(module, attribute, span name, attrs_of[, trial_of]) to wrap."""
        return []

    def traced_batch(self, tracer, spec):
        """run_batch inside the trial's root span."""
        with tracer.span("bench.trial", trial=spec):
            return self.run_batch(spec)


class Simulate(Workload):
    """`harness.run_simulate` in batches, writing and re-reading its CSV."""

    def __init__(self, name, n, threads, batch, min_trials, reference_trials, out_dir):
        self.name = name
        self.n = n
        self.threads = threads
        self.batch = batch
        self.window_trials = batch
        self.min_trials = min_trials
        self.reference_trials = reference_trials
        self.csv_path = os.path.join(out_dir, "%s.csv" % name)
        self.failures_path = self.csv_path + ".failures"

    def batches(self, seed):
        b = 0
        while True:
            yield (batch_master_seed(seed, b), self.batch)
            b += 1

    def reference_specs(self):
        return [(batch_master_seed(0, 0), self.reference_trials)]

    def run_batch(self, spec):
        master, trials = spec
        config = harness.ExperimentConfig(
            command="simulate", n=self.n, trials=trials, master_seed=master,
            kappa=KAPPA, threads=self.threads, out_path=self.csv_path,
        )
        for path in (self.csv_path, self.failures_path):
            if os.path.exists(path):
                os.remove(path)
        summary = io.StringIO()
        t0 = time.perf_counter()
        try:
            harness.run_simulate(config, out=summary)
        except harness.NumericFailureError:
            pass  # the failed trials are in the .failures file
        wall = time.perf_counter() - t0
        return self._read_outputs(master, trials, summary.getvalue()), wall

    def _read_outputs(self, master, trials, summary):
        outcomes = []
        with open(self.csv_path) as fh:
            header = fh.readline().strip()
            if header != harness.CSV_HEADER:
                raise OutputError("unexpected CSV header %r" % header)
            for line in fh:
                f = line.strip().split(",")
                trial = int(f[0])
                record = (int(f[1]), int(f[2]), int(f[3]), int(f[4]),
                          float(f[5]), float(f[6]), int(f[7]))
                outcomes.append(Outcome((master, trial), record, int(f[8]) / 1000.0))
        if os.path.exists(self.failures_path):
            with open(self.failures_path) as fh:
                for line in fh:
                    idx, reason = line.rstrip("\n").split(",", 1)
                    outcomes.append(Outcome((master, int(idx)), ("failed", reason),
                                            math.nan, failed=True, reason=reason))
        outcomes.sort(key=lambda o: o.key)
        if [o.key[1] for o in outcomes] != list(range(trials)):
            raise OutputError("batch %d: trials missing from the outputs" % master)
        ok = [o for o in outcomes if not o.failed]
        if ok:
            m = re.search(r"# mean components\s+= (\S+)", summary)
            printed = float(m.group(1)) if m else math.nan
            computed = float(np.mean([o.record[1] for o in ok]))
            if not abs(printed - computed) <= 1e-6 * max(1.0, computed):
                raise OutputError("batch %d: printed mean components %r != CSV mean %r"
                                 % (master, printed, computed))
        return outcomes

    def check(self, outcomes):
        errors = []
        for o in outcomes:
            if o.failed:
                continue
            n, comp, annulus, outside, area, _, _ = o.record
            if not (1 <= comp <= n and 1 <= annulus <= comp and outside == comp - 1
                    and 0.0 <= area <= math.pi):
                errors.append("%s trial %s: components %d, annulus %d, outside %d, "
                              "area %r break 1 <= annulus <= components <= n"
                              % (self.name, o.key, comp, annulus, outside, area))
        return errors

    def trace_targets(self):
        h = harness
        return [
            (h, "derive_substream", "rng.derive_substream", None),
            (h, "sample_disc_array", "rng.sample_disc_array", _sample_attrs),
            (h, "RootedPolynomial", "polyeval.RootedPolynomial", _poly_attrs),
            (h, "find_critical_points", "critical.find_critical_points", _crit_attrs),
            (h, "count_components", "components.count_components", _count_attrs),
            (h, "annulus_inner_radius", "components.annulus_inner_radius", None),
            (h, "inradius_holds", "components.inradius_holds", _inradius_attrs),
            (h, "area_outside_mc", "components.area_outside_mc", _area_attrs),
            (components, "sample_disc_array", "rng.sample_disc_array", _sample_attrs),
            (h, "run_trial", "harness.run_trial", None, _sim_trial_of),
        ]

    def traced_batch(self, tracer, spec):
        return self.run_batch(spec)  # harness.run_trial spans are the roots


class RasterOracle(Workload):
    """Criterion 03's job: pixel count against critical-value count."""

    name = "raster_oracle"
    min_trials = 100
    window_trials = 10  # one whole cycle of n = 3..12
    RESOLUTION = 4096
    BOUND = 2.05

    def batches(self, seed):
        t = 0
        while True:
            yield (int(seed), t)
            t += 1

    def reference_specs(self):
        return [(0, 0), (0, 1), (0, 2)]

    def run_batch(self, spec):
        t0 = time.perf_counter()
        out = self.trial(*spec)
        wall = time.perf_counter() - t0
        out.ms = wall * 1000.0
        return [out], wall

    def trial(self, master, t):
        n = 3 + t % 10
        stream = rng.derive_substream(master, t)
        poly = polyeval.RootedPolynomial(rng.sample_disc_array(stream, n))
        grid = raster.rasterize(poly, self.RESOLUTION, self.BOUND)
        pixels, _, bbox = raster.mask_component_stats(grid.inside_mask)
        key = (master, t)
        try:
            crit = critical.find_critical_points(poly, stream=stream)
        except critical.RootCollisionError as exc:
            return Outcome(key, ("failed", str(exc)), 0.0, True, "root-collision")
        if not crit.converged:
            return Outcome(key, ("failed", "not converged"), 0.0, True, "not converged")
        report = components.count_components(poly, crit, kappa=KAPPA)
        # a disagreement is excused when it is flagged the way criterion 03
        # flags it: a critical value near 0, or a component under 3 pixels
        diam = np.maximum(bbox[:, 1] - bbox[:, 0], bbox[:, 3] - bbox[:, 2]) + 1
        flagged = bool(np.min(np.abs(report.crit_log_values), initial=np.inf) < 1e-6)
        flagged |= bool((diam < 3).any())
        agree = int(pixels) == report.components
        record = (n, int(pixels), report.components, report.components_annulus,
                  flagged, agree)
        if not agree and not flagged:
            return Outcome(key, record, 0.0, True, "unflagged raster/critical disagreement",
                           agree=False)
        return Outcome(key, record, 0.0, agree=agree)

    def check(self, outcomes):
        errors = []
        for o in outcomes:
            if o.agree is None:
                continue  # the solver failed; counted, nothing to check
            n, pixels, comp, annulus = o.record[:4]
            if not (1 <= comp <= n and 1 <= annulus <= comp and pixels >= 1):
                errors.append("raster_oracle trial %s: pixels %d, components %d, "
                              "annulus %d for n=%d" % (o.key, pixels, comp, annulus, n))
        return errors

    def trace_targets(self):
        return [
            (rng, "derive_substream", "rng.derive_substream", None),
            (rng, "sample_disc_array", "rng.sample_disc_array", _sample_attrs),
            (polyeval, "RootedPolynomial", "polyeval.RootedPolynomial", _poly_attrs),
            (raster, "rasterize", "raster.rasterize", _raster_attrs),
            (raster, "mask_component_stats", "raster.mask_component_stats", None),
            (critical, "find_critical_points", "critical.find_critical_points", _crit_attrs),
            (components, "count_components", "components.count_components", _count_attrs),
        ]


class Estimators(Workload):
    """One trial is a round of the five estimator calls, on 1 thread."""

    name = "estimators"
    min_trials = 48
    window_trials = 3
    setup_probes = 2
    EPS_REGION = (-1.02, 1.02, -1.02, 1.02)
    # sample sizes keep a round near 0.35 s, so a 20 s run holds 40 to 100
    # rounds and its tail is p75 with at least ten rounds beyond it
    ON_EVENT = dict(n=50, trials=6000)
    T0 = dict(n=100, trials=3000)
    EPS = dict(n=8, eps=1e-3, grid=512, subsample=8)
    WALK = dict(r=0.9, n=200, a=100.0, b=110.0, trials=1800)

    def setup(self):
        # the first edgeworth_area call builds the Chebyshev cache; every
        # `lemlab area` invocation pays it
        t0 = time.perf_counter()
        analytic.edgeworth_area(100, KAPPA)
        return {"analytic.cheb_warm_s": time.perf_counter() - t0}

    def reset(self):
        # replayed rounds would otherwise hit moments_log_dist's cache
        analytic._moment_triple.cache_clear()

    def batches(self, seed):
        b = 0
        while True:
            yield batch_master_seed(seed, b)
            b += 1

    def reference_specs(self):
        return [batch_master_seed(0, 0)]

    def run_batch(self, spec):
        t0 = time.perf_counter()
        out = self.trial(spec)
        wall = time.perf_counter() - t0
        out.ms = wall * 1000.0
        return [out], wall

    def trial(self, master):
        on = kacrice.estimate_p_on_and_mn(
            self.ON_EVENT["n"], KAPPA, self.ON_EVENT["trials"],
            rng.derive_substream(master, 0))
        t0 = kacrice.estimate_t0(
            self.T0["n"], KAPPA, self.T0["trials"], rng.derive_substream(master, 1))
        stream = rng.derive_substream(master, 2)
        poly = polyeval.RootedPolynomial(rng.sample_disc_array(stream, self.EPS["n"]))
        eps = kacrice.epsilon_count(poly, self.EPS_REGION, self.EPS["eps"],
                                    self.EPS["grid"], subsample=self.EPS["subsample"])
        w = self.WALK
        walk = heavytail.walk_interval_prob_mc(
            w["r"], w["n"], w["a"], w["b"], w["trials"], rng.derive_substream(master, 3))
        u = rng.derive_substream(master, 4).uniforms(2)
        n_area = 50 + int(u[0] * 4950)
        r = float(u[1])
        area = analytic.edgeworth_area(n_area, KAPPA)
        mom = analytic.moments_log_dist(r)
        record = (on.p_on, on.m_n, on.diff_se, on.n_degenerate, t0.mean, t0.mom,
                  t0.n_degenerate, eps, walk.estimate, n_area, area, r, mom.u,
                  mom.sigma, mom.gamma3)
        return Outcome((master,), record, 0.0)

    #: the eps-integral counts the n-1 critical points; the midpoint rule
    #: at subsample 8 lands within 0.011 of n-1 on 150 sampled polynomials
    EPS_COUNT_TOL = 0.1
    #: |sum(p_on - m_n)| over a run may reach this many pooled diff_se
    IDENTITY_SE = 5.0

    def check(self, outcomes):
        errors = []
        diff = var = 0.0
        for o in outcomes:
            (p_on, m_n, diff_se, _, t0_mean, t0_mom, _, eps, walk, n_area, area,
             r, u, sigma, _) = o.record
            diff += p_on - m_n
            var += diff_se * diff_se
            bad = []
            if not (0.0 <= p_on <= 1.0 and m_n >= 0.0):
                bad.append("p_on %r, m_n %r" % (p_on, m_n))
            if not (t0_mean >= 0.0 and t0_mom >= 0.0):
                bad.append("t0 %r / %r" % (t0_mean, t0_mom))
            if abs(eps - (self.EPS["n"] - 1)) > self.EPS_COUNT_TOL:
                bad.append("eps-integral %r for %d critical points"
                           % (eps, self.EPS["n"] - 1))
            if not 0.0 <= walk <= 1.0:
                bad.append("walk probability %r" % walk)
            if not 1.0 < math.sqrt(n_area) * area < 2.0:
                bad.append("sqrt(n) * area %r at n=%d" % (math.sqrt(n_area) * area, n_area))
            if abs(u - 0.5 * (r * r - 1.0)) > 1e-9 or not sigma > 0.0:
                bad.append("moments at r=%r: u %r, sigma %r" % (r, u, sigma))
            if bad:
                errors.append("estimators round %s: %s" % (o.key, "; ".join(bad)))
        if abs(diff) > self.IDENTITY_SE * math.sqrt(var):
            errors.append("estimators: sum(p_on - m_n) = %r over %d rounds exceeds "
                          "%g pooled diff_se (%r)" % (diff, len(outcomes),
                                                     self.IDENTITY_SE, math.sqrt(var)))
        return errors

    def trace_targets(self):
        return [
            (rng, "derive_substream", "rng.derive_substream", None),
            (rng, "sample_disc_array", "rng.sample_disc_array", _sample_attrs),
            (kacrice, "sample_disc_array", "rng.sample_disc_array", _sample_attrs),
            (heavytail, "sample_disc_array", "rng.sample_disc_array", _sample_attrs),
            (polyeval, "RootedPolynomial", "polyeval.RootedPolynomial", _poly_attrs),
            (kacrice, "estimate_p_on_and_mn", "kacrice.estimate_p_on_and_mn", _on_event_attrs),
            (kacrice, "estimate_t0", "kacrice.estimate_t0", _t0_attrs),
            (kacrice, "epsilon_count", "kacrice.epsilon_count", None),
            (heavytail, "walk_interval_prob_mc", "heavytail.walk_interval_prob_mc", _walk_attrs),
            (analytic, "edgeworth_area", "analytic.edgeworth_area", None),
            (analytic, "moments_log_dist", "analytic.moments_log_dist", None),
        ]


def make_workloads(out_dir, cpus):
    """The workloads by name, in the order `--workload all` runs them."""
    threads = max(1, min(2, cpus))
    return {
        w.name: w for w in (
            Simulate(
                "sim_n100", n=100, threads=1, batch=100, min_trials=1000,
                reference_trials=24, out_dir=out_dir),
            Simulate(
                "sim_n800", n=800, threads=threads, batch=24, min_trials=240,
                reference_trials=4, out_dir=out_dir),
            RasterOracle(),
            Estimators(),
        )
    }
