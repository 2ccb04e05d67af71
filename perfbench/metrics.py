"""End-to-end and per-layer metrics from outcomes and spans."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

#: tail percentiles tried from the highest down, in tenths of a percent
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def tail_percentile(values):
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples beyond it, by nearest rank.

    With fewer than 2 * TAIL_BEYOND samples no ladder percentile
    qualifies and the maximum is returned as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for p in TAIL_LADDER:
        beyond = n * (1000 - p) // 1000
        if beyond >= TAIL_BEYOND:
            return p / 10.0, xs[n - beyond - 1]
    return 100.0, xs[-1]


def quartile_spread(values):
    """(q3 - q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def windowed_rate(batches, window_trials):
    """(median, windows): trials per second in each run of consecutive
    batches that together hold at least `window_trials` trials, and the
    median over those windows.  A trailing part window is dropped unless
    it is the only one.  `batches` is [(trials, wall seconds), ...] in
    run order.
    """
    rates, trials, wall = [], 0, 0.0
    for n, w in batches:
        trials += n
        wall += w
        if trials >= window_trials:
            rates.append(trials / wall)
            trials, wall = 0, 0.0
    if not rates:
        rates.append(trials / wall)
    return statistics.median(rates), len(rates)


def end_to_end(outcomes, batches, window_trials, setup_samples, peak_rss_mb):
    """The end-to-end metrics of one timed run, plus what they rest on.

    Throughput is the median over windows of 0.6 to 2.5 s
    (`windowed_rate`), so that a stall of the shared host that lasts a
    few windows does not move it the way it moves a whole-run mean.
    Latency covers every trial that ran to the end, including those that
    failed on a raster/critical disagreement; a trial the solver gave up
    on has no latency.  The tail latency goes with the basis, not the
    metrics: it is reported, but its run-to-run spread on a shared host
    is too wide to bound (see README.md).
    """
    ms = [o.ms for o in outcomes if not math.isnan(o.ms)]
    tail_p, tail_ms = tail_percentile(ms)
    rate, windows = windowed_rate(batches, window_trials)
    wall_s = sum(w for _, w in batches)
    metrics = {
        "trials_per_s": (rate, "1/s"),
        "trial_ms_p50": (statistics.median(ms), "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    basis = {
        "samples": len(ms),
        "trial_ms_tail": tail_ms,
        "tail_percentile": tail_p,
        "setup_samples": list(setup_samples),
        "wall_s": wall_s,
        "mean_trials_per_s": len(outcomes) / wall_s,
        "windows": windows,
    }
    return metrics, basis


#: per-layer metric names with their units, in report order
LAYER_UNITS = {
    "critical.find_ms": "ms",
    "critical.sweeps": "count",
    "critical.ns_per_pair_sweep": "ns",
    "critical.converged_ratio": "ratio",
    "components.count_ms": "ms",
    "components.inradius_ms": "ms",
    "components.area_mc_ms": "ms",
    "components.ns_per_point_root": "ns",
    "components.ambiguous": "count",
    "rng.sample_ns_per_point": "ns",
    "polyeval.construct_us": "us",
    "raster.rasterize_ms": "ms",
    "raster.ns_per_pixel": "ns",
    "raster.component_stats_ms": "ms",
    "raster.agreement_ratio": "ratio",
    "kacrice.on_event_ms": "ms",
    "kacrice.on_event_ns_per_sample_root": "ns",
    "kacrice.t0_ms": "ms",
    "kacrice.epsint_ms": "ms",
    "kacrice.degenerate": "count",
    "heavytail.walk_ms": "ms",
    "heavytail.ns_per_increment": "ns",
    "analytic.cheb_warm_s": "s",
    "analytic.edgeworth_ms": "ms",
    "analytic.moments_ms": "ms",
    "harness.overhead_ms_per_trial": "ms",
    "trace.overhead_ratio": "ratio",
}


def per_layer(spans, selfs, traced, untraced_wall, traced_wall, setup):
    """Per-layer metrics from the traced phase.

    Times are self times: a span's duration minus its traced children, so
    rng sampling inside an estimator is charged to rng.  A layer the
    workload never calls reports 0.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_ns(*names):
        return sum(selfs[s.id] for n in names for s in by_name[n])

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def attr_sum(key, *names):
        return sum(s.attrs.get(key, 0) for n in names for s in by_name[n])

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_self(name, scale):
        return ratio(self_ns(name), calls(name)) / scale

    crit = "critical.find_critical_points"
    pair_sweeps = sum(s.attrs["sweeps"] * (s.attrs["n"] - 1) * s.attrs["n"]
                      for s in by_name[crit])
    comp = ("components.count_components", "components.inradius_holds",
            "components.area_outside_mc")
    on_event = "kacrice.estimate_p_on_and_mn"
    walk = "heavytail.walk_interval_prob_mc"
    compared = [o.agree for o in traced if o.agree is not None]

    # glue between layer calls: the self time of each trial's root span
    roots = [s for s in spans if s.parent == 0 and s.trial is not None]
    overhead = ratio(sum(selfs[s.id] for s in roots), len(roots)) / 1e6

    values = {
        "critical.find_ms": mean_self(crit, 1e6),
        "critical.sweeps": ratio(attr_sum("sweeps", crit), calls(crit)),
        "critical.ns_per_pair_sweep": ratio(self_ns(crit), pair_sweeps),
        "critical.converged_ratio": ratio(attr_sum("converged", crit), calls(crit)),
        "components.count_ms": mean_self("components.count_components", 1e6),
        "components.inradius_ms": mean_self("components.inradius_holds", 1e6),
        "components.area_mc_ms": mean_self("components.area_outside_mc", 1e6),
        "components.ns_per_point_root": ratio(self_ns(*comp), attr_sum("pairs", *comp)),
        "components.ambiguous": attr_sum("ambiguous", "components.count_components"),
        "rng.sample_ns_per_point": ratio(self_ns("rng.sample_disc_array"),
                                         attr_sum("points", "rng.sample_disc_array")),
        "polyeval.construct_us": mean_self("polyeval.RootedPolynomial", 1e3),
        "raster.rasterize_ms": mean_self("raster.rasterize", 1e6),
        "raster.ns_per_pixel": ratio(self_ns("raster.rasterize"),
                                     attr_sum("pixels", "raster.rasterize")),
        "raster.component_stats_ms": mean_self("raster.mask_component_stats", 1e6),
        "raster.agreement_ratio": ratio(sum(compared), len(compared)),
        "kacrice.on_event_ms": mean_self(on_event, 1e6),
        "kacrice.on_event_ns_per_sample_root": ratio(
            self_ns(on_event), attr_sum("sample_roots", on_event)),
        "kacrice.t0_ms": mean_self("kacrice.estimate_t0", 1e6),
        "kacrice.epsint_ms": mean_self("kacrice.epsilon_count", 1e6),
        "kacrice.degenerate": attr_sum("degenerate", on_event, "kacrice.estimate_t0"),
        "heavytail.walk_ms": mean_self(walk, 1e6),
        "heavytail.ns_per_increment": ratio(self_ns(walk), attr_sum("increments", walk)),
        "analytic.cheb_warm_s": setup.get("analytic.cheb_warm_s", 0.0),
        "analytic.edgeworth_ms": mean_self("analytic.edgeworth_area", 1e6),
        "analytic.moments_ms": mean_self("analytic.moments_log_dist", 1e6),
        "harness.overhead_ms_per_trial": overhead,
        "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
    }
    return {k: (float(v), LAYER_UNITS[k]) for k, v in values.items()}
