"""Kac-Rice counting: the epsilon-integral and the conditioned-root event.

Two independent routes to the expected number of small lemniscate
components live here.

First, the epsilon-integral root counter: for a polynomial F with simple
zeros, (1/(pi eps^2)) int_U |F'|^2 1{|F| < eps} dA converges to the
number of zeros of F in U as eps -> 0 and never exceeds deg F for any
eps.  We apply it with F = P' (so F' = P''), evaluating both moduli in
log space through the root sums |P'| = |P| |S| and |P''| = |P| |S^2 - R|.

Second, the conditioned-root event for X_0 and the rest-roots X_2..X_n:

    O = { |S(X_0)| < |Q(X_0)|, |X_0 + 1/S(X_0)| < 1, X_0 in annulus }

with S the rest-root reciprocal sum and Q the rest-root product.  Its
probability equals E[ |(X_0 - X_2) S|^{-4} ; O ], and the expected
small-component count (minus one) is E[ |1 + R/S^2|^2 ; O ].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .components import annulus_inner_radius
from .polyeval import RootedPolynomial, log_modulus, recip_sums
from .rng import DiscPoint, sample_disc_array

_LOG_GUARD = 700.0


class LogOverflowError(OverflowError):
    """A modulus needed in linear space exceeded the double range."""


# ------------------------------------------------------------ eps-integral


def _log_moduli(poly, x, y):
    """(log|P'|, log|P''|) at the complex points x + iy, via root sums."""
    diff = (x + 1j * y)[..., None] - poly.roots
    logp = log_modulus(diff)
    s, r = recip_sums(diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_dp = logp + np.log(np.abs(s))
        log_ddp = logp + np.log(np.abs(s * s - r))
    return log_dp, log_ddp


def epsilon_count(poly, region, eps, grid, max_depth=None, subsample=32):
    """Quadrature of (1/(pi eps^2)) int |P''|^2 1{|P'| < eps} over `region`.

    region = (xmin, xmax, ymin, ymax).  The base grid is `grid` cells per
    side.  Cells provably inside or outside {|P'| < eps} (via the margin
    |P'(c)| -/+ 4 |P''(c)| * halfdiag against eps, all in log space) are
    settled by their midpoint; undecided cells are split in four, down to
    cells comparable with the local disc radius eps/|P''| (at most
    `max_depth` extra levels; default picks the depth needed, capped at
    16), and surviving boundary cells are settled by a subsample x
    subsample midpoint rule.
    """
    if eps <= 0:
        raise ValueError("eps > 0 required")
    if grid < 256:
        raise ValueError("grid >= 256 required")
    xmin, xmax, ymin, ymax = region
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("degenerate region")
    log_eps = math.log(eps)
    depth_cap = 16 if max_depth is None else int(max_depth)

    # level 0: all cells, then refine an ever-shrinking active set
    gx = np.arange(grid)
    hx = (xmax - xmin) / grid
    hy = (ymax - ymin) / grid
    X, Y = np.meshgrid(xmin + (gx + 0.5) * hx, ymin + (gx + 0.5) * hy,
                       indexing="ij")
    cx = X.ravel()
    cy = Y.ravel()
    total = 0.0
    denom = math.pi * eps * eps
    level = 0
    while True:
        area = hx * hy
        halfdiag = 0.5 * math.hypot(hx, hy)
        log_margin = math.log(4.0 * halfdiag)
        log_dp, log_ddp = _log_moduli(poly, cx, cy)
        lm = log_ddp + log_margin
        certainly_in = np.logaddexp(log_dp, lm) < log_eps
        certainly_out = log_dp > np.logaddexp(log_eps, lm)
        if certainly_in.any():
            expo = 2.0 * log_ddp[certainly_in] + math.log(area) - math.log(denom)
            if np.max(expo) > _LOG_GUARD:
                raise LogOverflowError("|P''|^2 cell weight overflows")
            total += float(np.exp(expo).sum())
        undecided = ~(certainly_in | certainly_out)
        # a cell is worth splitting while it is coarse next to the local
        # disc radius eps/|P''|; others go straight to subsampling
        if level < depth_cap:
            log_rloc = log_eps - log_ddp
            split = undecided & (math.log(halfdiag * 0.5) > log_rloc - math.log(8.0))
        else:
            split = np.zeros_like(undecided)
        settle = undecided & ~split
        if settle.any():
            total += _subsample_cells(
                poly, cx[settle], cy[settle], hx, hy, subsample, log_eps, denom
            )
        if not split.any():
            break
        cx = cx[split]
        cy = cy[split]
        qx = 0.25 * hx
        qy = 0.25 * hy
        cx = np.concatenate([cx - qx, cx - qx, cx + qx, cx + qx])
        cy = np.concatenate([cy - qy, cy + qy, cy - qy, cy + qy])
        hx *= 0.5
        hy *= 0.5
        level += 1
    return total


def _subsample_cells(poly, cx, cy, hx, hy, s, log_eps, denom):
    ox = ((np.arange(s) + 0.5) / s - 0.5) * hx
    oy = ((np.arange(s) + 0.5) / s - 0.5) * hy
    OX, OY = np.meshgrid(ox, oy, indexing="ij")
    sub_area = (hx / s) * (hy / s)
    total = 0.0
    # batched over cells to bound memory: each cell adds s*s points
    batch = max(1, 2_000_000 // (s * s * max(poly.n, 1)))
    for lo in range(0, cx.size, batch):
        hi = min(lo + batch, cx.size)
        px = (cx[lo:hi, None] + OX.ravel()[None, :]).ravel()
        py = (cy[lo:hi, None] + OY.ravel()[None, :]).ravel()
        log_dp, log_ddp = _log_moduli(poly, px, py)
        inside = log_dp < log_eps
        if inside.any():
            expo = 2.0 * log_ddp[inside] + math.log(sub_area) - math.log(denom)
            if np.max(expo) > _LOG_GUARD:
                raise LogOverflowError("|P''|^2 subcell weight overflows")
            total += float(np.exp(expo).sum())
    return total


# ------------------------------------------------------- conditioned event


@dataclass
class OnSample:
    """One draw of (X_0, X_2..X_n) with the event diagnostics."""

    x0: DiscPoint
    poly_rest: RootedPolynomial
    s_n: complex
    r_n: complex
    log_q: float
    in_annulus: bool
    in_event: bool


def _draw_x0_and_rest(stream, count, m):
    """`count` draws of X_0 and m further uniform disc roots.

    A draw whose reciprocal sum S(X_0) over the m roots is zero or not
    finite is degenerate and is redrawn whole (X_0 first, then its m
    roots).  Returns (x0, rest, diff, S, R, degenerate) with
    diff = X_0 - rest and `degenerate` the number of redraws.
    """
    x0 = sample_disc_array(stream, count)
    rest = sample_disc_array(stream, count * m).reshape(count, m)
    degenerate = 0
    while True:
        diff = x0[:, None] - rest
        s, r = recip_sums(diff)
        bad = (s == 0) | ~np.isfinite(s)
        if not bad.any():
            return x0, rest, diff, s, r, degenerate
        nb = int(bad.sum())
        degenerate += nb
        x0[bad] = sample_disc_array(stream, nb)
        rest[bad] = sample_disc_array(stream, nb * m).reshape(nb, m)


def _event_batch(n, kappa, stream, count):
    """Vectorized draw of `count` samples; returns a dict of arrays."""
    inner = annulus_inner_radius(n, kappa)
    x0, rest, diff, s, r, degenerate = _draw_x0_and_rest(stream, count, n - 1)
    log_q = log_modulus(diff)
    mod0 = np.abs(x0)
    in_ann = (mod0 > inner) & (mod0 < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_s = np.log(np.abs(s))
        shifted = np.abs(x0 + 1.0 / s)
    in_event = in_ann & (log_s < log_q) & (shifted < 1.0)
    log_x0x2 = np.log(np.abs(x0 - rest[:, 0]))
    return {
        "x0": x0,
        "rest": rest,
        "s": s,
        "r": r,
        "log_q": log_q,
        "log_s": log_s,
        "log_x0x2": log_x0x2,
        "in_annulus": in_ann,
        "in_event": in_event,
        "degenerate": degenerate,
    }


def sample_on_event(n, kappa, stream):
    """One OnSample draw (X_0 plus the n-1 rest-roots)."""
    if n < 3:
        raise ValueError("n >= 3 required")
    b = _event_batch(n, kappa, stream, 1)
    return OnSample(
        x0=DiscPoint(b["x0"][0].real, b["x0"][0].imag),
        poly_rest=RootedPolynomial(b["rest"][0]),
        s_n=complex(b["s"][0]),
        r_n=complex(b["r"][0]),
        log_q=float(b["log_q"][0]),
        in_annulus=bool(b["in_annulus"][0]),
        in_event=bool(b["in_event"][0]),
    )


@dataclass(frozen=True)
class EventIdentityEstimate:
    """Monte Carlo P(O) and the reweighted mean that should equal it."""

    p_on: float
    p_se: float
    m_n: float
    m_se: float
    diff_se: float
    n_samples: int
    n_degenerate: int


#: mixture weight of the band proposal in the importance sampler
_IS_ALPHA = 0.6


def _mn_importance_chunk(n, kappa, stream, k):
    """One chunk of importance-sampled summands for E[|(X0-X2) S|^{-4}; O].

    Conditional on X_0 and X_3..X_n, write St for the partial reciprocal
    sum and xi = X_0 + 1/St.  The identity |1 + (X_0 - x) St| = |St| |x - xi|
    shows the integrand exceeds 1/16 only inside the band
    |x - xi| < 2/|St|, and the event is provably empty below
    |x - xi| = 1/(|St| (1 + 2 |St|)).  X_2 is therefore drawn from a
    mixture of the uniform disc law and a v^{-3}-graded radial proposal
    on that band, which bounds every importance summand by about
    4/alpha, so the estimator's variance (and hence its reported SE) is
    trustworthy at criterion sample sizes.
    """
    inner = annulus_inner_radius(n, kappa)
    x0, _, diff, s_t, _, degenerate = _draw_x0_and_rest(stream, k, n - 2)
    log_q_rest = log_modulus(diff)

    abs_st = np.abs(s_t)
    xi = x0 + 1.0 / s_t
    s_rad = 2.0 / abs_st
    t_min = 1.0 / (abs_st * (1.0 + 2.0 * abs_st))
    reachable = np.abs(xi) - s_rad < 1.0
    alpha = np.where(reachable, _IS_ALPHA, 0.0)

    # fixed consumption: Bernoulli + uniform-disc candidate + band (v, angle)
    pick = stream.uniforms(k) < alpha
    x2_unif = sample_disc_array(stream, k)
    u_v = stream.uniforms(k)
    u_a = stream.uniforms(k)
    inv_tm2 = 1.0 / (t_min * t_min)
    inv_sr2 = 1.0 / (s_rad * s_rad)
    v_band = 1.0 / np.sqrt(inv_tm2 - u_v * (inv_tm2 - inv_sr2))
    x2_band = xi + v_band * np.exp(2j * np.pi * u_a)
    x2 = np.where(pick, x2_band, x2_unif)

    in_disc = np.abs(x2) < 1.0
    v2 = np.abs(x2 - xi)
    band = (v2 > t_min) & (v2 < s_rad) & reachable
    c_norm = 2.0 / (inv_tm2 - inv_sr2)
    dens_ratio = (1.0 - alpha) + np.where(
        band, alpha * c_norm / (2.0 * v2**4), 0.0
    )
    is_weight = np.where(in_disc & (dens_ratio > 0), 1.0 / dens_ratio, 0.0)

    diff2 = x0 - x2
    with np.errstate(divide="ignore", invalid="ignore"):
        s_full = recip_sums(diff2[:, None])[0] + s_t  # S_t + 1/(X_0 - X_2)
        log_s = np.log(np.abs(s_full))
        shifted = np.abs(x0 + 1.0 / s_full)
    log_x0x2 = np.log(np.abs(diff2))
    log_q = log_q_rest + log_x0x2
    mod0 = np.abs(x0)
    in_ann = (mod0 > inner) & (mod0 < 1.0)
    in_event = in_ann & (log_s < log_q) & (shifted < 1.0) & in_disc
    lw = -4.0 * (log_x0x2 + log_s)
    summand = np.where(in_event, np.exp(np.where(in_event, lw, 0.0)), 0.0)
    return summand * is_weight, degenerate


def estimate_p_on_and_mn(n, kappa, trials, stream, chunk=None,
                         method="importance"):
    """P(O) as an indicator mean, and M = E[|(X0-X2) S|^{-4}; O].

    The identity M = P(O) is exact, but the plain-mean estimate of M has
    its mass concentrated on rare draws with X_2 near X_0 + 1/St, and at
    desk sample sizes it routinely misses them, giving both a low value
    and an overconfident SE.  `method="importance"` (the default) spends
    `trials` extra draws on an importance sampler over X_2 whose
    summands are bounded, so the reported m_se is sound;
    `method="plain"` keeps the naive estimator for comparison.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    if method not in ("importance", "plain"):
        raise ValueError("method must be 'importance' or 'plain'")
    if chunk is None:
        chunk = max(1, 400_000 // n)

    hits = 0
    degenerate = 0
    done = 0
    sw = sw2 = sd2 = 0.0
    while done < trials:
        k = min(chunk, trials - done)
        b = _event_batch(n, kappa, stream, k)
        ev = b["in_event"]
        hits += int(ev.sum())
        degenerate += b["degenerate"]
        if method == "plain":
            lw = -4.0 * (b["log_x0x2"] + b["log_s"])
            w = np.where(ev, np.exp(np.where(ev, lw, 0.0)), 0.0)
            sw += float(w.sum())
            sw2 += float((w * w).sum())
            d = ev.astype(np.float64) - w
            sd2 += float((d * d).sum())
        done += k
    p = hits / trials
    p_se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)

    if method == "importance":
        done = 0
        while done < trials:
            k = min(chunk, trials - done)
            w, deg = _mn_importance_chunk(n, kappa, stream, k)
            degenerate += deg
            sw += float(w.sum())
            sw2 += float((w * w).sum())
            done += k
        m = sw / trials
        m_se = math.sqrt(max(sw2 / trials - m * m, 0.0) / trials)
        diff_se = math.sqrt(p_se * p_se + m_se * m_se)
    else:
        m = sw / trials
        m_se = math.sqrt(max(sw2 / trials - m * m, 0.0) / trials)
        dmean = p - m
        diff_se = math.sqrt(max(sd2 / trials - dmean * dmean, 0.0) / trials)
    return EventIdentityEstimate(
        p_on=p,
        p_se=p_se,
        m_n=m,
        m_se=m_se,
        diff_se=diff_se,
        n_samples=trials,
        n_degenerate=degenerate,
    )


@dataclass(frozen=True)
class CountIntegrandEstimate:
    """E[|1 + R/S^2|^2; O]: plain mean, SE, and the median-of-means."""

    mean: float
    se: float
    mom: float
    mom_se: float
    n_samples: int
    n_degenerate: int


def estimate_t0(n, kappa, trials, stream, chunk=None, blocks=32):
    """Estimate E[|1 + R/S^2|^2; O] (the expected extra components).

    The integrand has heavy tails in principle, so alongside the plain
    mean we report a 32-block median-of-means; acceptance checks use the
    median-of-means value.  Its SE is the asymptotic standard error of a
    median of `blocks` block means; with fewer trials than blocks, each
    block holds one value.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    if chunk is None:
        chunk = max(1, 400_000 // n)
    vals = np.empty(trials)
    degenerate = 0
    done = 0
    while done < trials:
        k = min(chunk, trials - done)
        b = _event_batch(n, kappa, stream, k)
        s = b["s"]
        v = np.abs(1.0 + b["r"] / (s * s)) ** 2
        vals[done : done + k] = np.where(b["in_event"], v, 0.0)
        degenerate += b["degenerate"]
        done += k
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    blocks = min(blocks, trials)
    block_means = np.array([p.mean() for p in np.array_split(vals, blocks)])
    mom = float(np.median(block_means))
    mom_se = float(
        math.sqrt(math.pi / 2.0) * block_means.std(ddof=1) / math.sqrt(blocks)
    ) if blocks > 1 else se
    return CountIntegrandEstimate(
        mean=mean, se=se, mom=mom, mom_se=mom_se,
        n_samples=trials, n_degenerate=degenerate,
    )
