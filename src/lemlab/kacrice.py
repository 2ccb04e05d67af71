"""Kac-Rice counting: the epsilon-integral and the conditioned-root event.

Two independent routes to the expected number of small lemniscate
components live here.

First, the epsilon-integral root counter: for a polynomial F with simple
zeros, (1/(pi eps^2)) int_U |F'|^2 1{|F| < eps} dA converges to the
number of zeros of F in U as eps -> 0 and never exceeds deg F for any
eps.  We apply it with F = P' (so F' = P''), evaluating both moduli in
log space through the root sums |P'| = |P| |S| and |P''| = |P| |S^2 - R|.
Whole blocks of base cells that a bound proves far from {|P'| < eps} are
skipped, which leaves every bit of the count as the full grid gives it.

Second, the conditioned-root event for X_0 and the rest-roots X_2..X_n:

    O = { |S(X_0)| < |Q(X_0)|, |X_0 + 1/S(X_0)| < 1, X_0 in annulus }

with S the rest-root reciprocal sum and Q the rest-root product.  Its
probability equals E[ |(X_0 - X_2) S|^{-4} ; O ], and the expected
small-component count (minus one) is E[ |1 + R/S^2|^2 ; O ].
`estimate_p_on` gives P(O) as an indicator mean; `estimate_p_on_and_mn`
adds the reweighted mean, drawn by an importance sampler over X_2 whose
summands are bounded; `estimate_t0` gives the count integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .components import annulus_inner_radius
from .polyeval import BLOCK_PAIRS, pair_sums
from .rng import sample_disc_array

_LOG_GUARD = 700.0
#: refinement levels below the base grid of `epsilon_count`
_MAX_DEPTH = 16
#: side, in base cells, of the blocks `epsilon_count` may rule out
_BLOCK = 8
#: relative rounding allowance of that exclusion (see `_kept_cells`)
_ROUND = 1e-9
#: blocks of the median-of-means in `estimate_t0`
_MOM_BLOCKS = 32


class LogOverflowError(OverflowError):
    """A modulus needed in linear space exceeded the double range."""


# ------------------------------------------------------------ eps-integral


def _log_moduli(poly, x, y):
    """(log|P'|, log|P''|) at the complex points x + iy, via root sums."""
    logp, s, r = pair_sums(x + 1j * y, poly.roots, "log", "S", "R")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_dp = logp + np.log(np.abs(s))
        log_ddp = logp + np.log(np.abs(s * s - r))
    return log_dp, log_ddp


def _weight_sum(log_ddp, area, denom):
    """Sum of |P''|^2 area / denom over points given by log|P''|."""
    if not log_ddp.size:
        return 0.0
    expo = 2.0 * log_ddp + math.log(area) - math.log(denom)
    if np.max(expo) > _LOG_GUARD:
        raise LogOverflowError("|P''|^2 cell weight overflows")
    return float(np.exp(expo).sum())


def epsilon_count(poly, region, eps, grid, subsample=32):
    """Quadrature of (1/(pi eps^2)) int |P''|^2 1{|P'| < eps} over `region`.

    region = (xmin, xmax, ymin, ymax).  The base grid is `grid` cells per
    side.  A cell whose midpoint c passes |P'(c)| + 4 halfdiag |P''(c)| <
    eps counts as inside {|P'| < eps}, and one with |P'(c)| - 4 halfdiag
    |P''(c)| > eps as outside (all in log space); either is settled by
    its midpoint.  This is a first-order test with a factor-4 allowance,
    not a bound: near a zero of P'', |P''| can exceed 4 |P''(c)| inside
    the cell, and the set's boundary can then cross a settled cell.
    Undecided cells are split in four, down to cells comparable with the
    local disc radius eps/|P''| (at most 16 extra levels), and surviving
    boundary cells are settled by a subsample x subsample midpoint rule.
    Level 0 runs, in row-major order, only on the cells that `_kept_cells`
    cannot show that test to call outside, by a bound over 8 x 8 blocks;
    a skipped cell adds nothing and is never split, so the count equals
    the full-grid quadrature bit for bit.
    """
    if not (0 < eps < math.inf and subsample >= 1):
        raise ValueError("finite eps > 0 and subsample >= 1 required")
    if grid < 256:
        raise ValueError("grid >= 256 required")
    xmin, xmax, ymin, ymax = region
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("degenerate region")
    log_eps = math.log(eps)

    # level 0: the kept cells, then refine an ever-shrinking active set
    hx = (xmax - xmin) / grid
    hy = (ymax - ymin) / grid
    keep = _kept_cells(poly, region, grid, log_eps)
    cx = xmin + (keep // grid + 0.5) * hx
    cy = ymin + (keep % grid + 0.5) * hy
    total = 0.0
    denom = math.pi * eps * eps
    level = 0
    while True:
        halfdiag = 0.5 * math.hypot(hx, hy)
        log_margin = math.log(4.0 * halfdiag)
        log_dp, log_ddp = _log_moduli(poly, cx, cy)
        lm = log_ddp + log_margin
        certainly_in = np.logaddexp(log_dp, lm) < log_eps
        certainly_out = log_dp > np.logaddexp(log_eps, lm)
        total += _weight_sum(log_ddp[certainly_in], hx * hy, denom)
        undecided = ~(certainly_in | certainly_out)
        # a cell is worth splitting while it is coarse next to the local
        # disc radius eps/|P''|; others go straight to subsampling
        if level < _MAX_DEPTH:
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


def _kept_cells(poly, region, grid, log_eps):
    """Row-major indices of the base cells of `epsilon_count` not ruled out.

    Every midpoint c of a _BLOCK x _BLOCK block of cells (edge blocks
    overhang the grid) is within rho = 3.5 hypot(hx, hy) of the block
    centre b.  With d_k = |b - x_k| > rho and u_j = sum (d_k - rho)^-j,
    log|P(c)| >= log|P(b)| - rho u_1, |S(c)| >= |S(b)| - sum rho/(d_k
    (d_k - rho)) and, as (S^2 - R)' = 2 sum (z - x_k)^-3 - 2 S R,
    |S^2 - R|(c) <= |S^2 - R|(b) + 2 rho (u_1 u_2 + u_3).  As P' = P S and
    P'' = P (S^2 - R), `low` > 0, the implied bound on |S| - 4 halfdiag
    |S^2 - R|, with log|P(b)| - rho u_1 + log(low) > log eps proves level
    0's "certainly out", |P'| > eps + 4 halfdiag |P''|, at every c.  That
    is all it proves: a ruled-out cell is one level 0 would call outside,
    not a cell shown to lie outside {|P'| < eps}.  A root
    sum at b or c errs by a few ulps times log2 n against the sum of its
    terms' moduli: under u_1 for S, u_1^2 + u_2 for S^2 - R, and n + sum
    |log(d_k - rho)| + 2 rho u_1 for log|P|.  `low` gives up and the log
    test asks _ROUND times those, a million times that error, with room
    for the rounding of the test at c; rho gains _ROUND max |coordinate|.
    """
    xmin, xmax, ymin, ymax = region
    hx, hy = (xmax - xmin) / grid, (ymax - ymin) / grid
    nb = -(-grid // _BLOCK)
    mid = np.arange(nb) * _BLOCK + 0.5 * _BLOCK
    b = ((xmin + mid * hx)[:, None] + 1j * (ymin + mid * hy)).ravel()
    logp, s, r = pair_sums(b, poly.roots, "log", "S", "R")
    rho = 0.5 * (_BLOCK - 1) * math.hypot(hx, hy) + _ROUND * max(map(abs, region))
    h4 = 2.0 * math.hypot(hx, hy)  # 4 halfdiag at level 0
    ruled_out = np.zeros(b.size, bool)
    rows = max(1, BLOCK_PAIRS // poly.n)  # bounds memory as `pair_sums` does
    with np.errstate(divide="ignore", invalid="ignore"):
        for at in (slice(lo, lo + rows) for lo in range(0, b.size, rows)):
            d = np.abs(b[at, None] - poly.roots)
            g = np.where(d > rho, 1.0 / (d - rho), np.inf)
            u1, u2, u3 = ((g ** j).sum(1) for j in (1, 2, 3))
            low = (np.abs(s[at]) - rho * (g / d).sum(1)
                   - h4 * (np.abs(s[at] ** 2 - r[at]) + 2.0 * rho * (u1 * u2 + u3))
                   - _ROUND * (u1 + h4 * (u1 * u1 + u2)))
            slack = _ROUND * (poly.n + np.abs(np.log(g)).sum(1) + 2.0 * rho * u1)
            ruled_out[at] = logp[at] - rho * u1 + np.log(low) > log_eps + slack
    keep = np.repeat(np.repeat(~ruled_out.reshape(nb, nb), _BLOCK, 0), _BLOCK, 1)
    return np.flatnonzero(keep[:grid, :grid])


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
        total += _weight_sum(log_ddp[log_dp < log_eps], sub_area, denom)
    return total


# ------------------------------------------------------- conditioned event


def _chunks(n, trials):
    """Draw counts covering `trials` draws, about 400k roots per chunk."""
    if n < 3:
        raise ValueError("n >= 3 required")
    chunk = max(1, 400_000 // n)
    return [min(chunk, trials - lo) for lo in range(0, trials, chunk)]


def _draw_x0_and_rest(stream, count, m, *names):
    """`count` draws of X_0 and m further uniform disc roots.

    A draw whose reciprocal sum S(X_0) over the m roots is zero or not
    finite is degenerate and is redrawn whole (X_0 first, then its m
    roots).  Returns (x0, degenerate, S, ...): `degenerate` is the
    number of redraws, followed by S and the `pair_sums` of X_0 against
    its roots for each further name.
    """
    x0 = sample_disc_array(stream, count)
    rest = sample_disc_array(stream, count * m).reshape(count, m)
    degenerate = 0
    while True:
        sums = pair_sums(x0, rest, "S", *names)
        s = sums[0]
        bad = (s == 0) | ~np.isfinite(s)
        if not bad.any():
            return (x0, degenerate) + sums
        nb = int(bad.sum())
        degenerate += nb
        x0[bad] = sample_disc_array(stream, nb)
        rest[bad] = sample_disc_array(stream, nb * m).reshape(nb, m)


def _in_event(n, kappa, x0, s, log_q):
    """The event O given X_0, S and log|Q|: (in_event, log|S|)."""
    inner = annulus_inner_radius(n, kappa)
    mod0 = np.abs(x0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_s = np.log(np.abs(s))
        shifted = np.abs(x0 + 1.0 / s)
    return (mod0 > inner) & (mod0 < 1.0) & (log_s < log_q) & (shifted < 1.0), log_s


def _event_chunks(n, kappa, trials, stream, *names):
    """Per chunk of `trials` draws: (in_event, degenerate, S, *names' sums)."""
    for k in _chunks(n, trials):
        x0, degenerate, s, log_q, *sums = _draw_x0_and_rest(
            stream, k, n - 1, "log", *names)
        yield (_in_event(n, kappa, x0, s, log_q)[0], degenerate, s, *sums)


def estimate_p_on(n, kappa, trials, stream):
    """P(O) as an indicator mean over `trials` draws: (p, se, degenerate)."""
    hits = 0
    degenerate = 0
    for in_event, deg, _ in _event_chunks(n, kappa, trials, stream):
        hits += int(in_event.sum())
        degenerate += deg
    p = hits / trials
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / trials), degenerate


@dataclass(frozen=True)
class EventIdentityEstimate:
    """Monte Carlo P(O) and the reweighted mean that should equal it."""

    p_on: float
    p_se: float
    m_n: float
    m_se: float
    diff_se: float
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
    x0, degenerate, s_t, log_q_rest = _draw_x0_and_rest(stream, k, n - 2, "log")

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
    s_full = pair_sums(x0, x2[:, None], "S")[0] + s_t  # S_t + 1/(X_0 - X_2)
    log_x0x2 = np.log(np.abs(diff2))
    in_event, log_s = _in_event(n, kappa, x0, s_full, log_q_rest + log_x0x2)
    in_event &= in_disc
    lw = -4.0 * (log_x0x2 + log_s)
    summand = np.where(in_event, np.exp(np.where(in_event, lw, 0.0)), 0.0)
    return summand * is_weight, degenerate


def estimate_p_on_and_mn(n, kappa, trials, stream):
    """P(O) as an indicator mean, and M = E[|(X0-X2) S|^{-4}; O].

    The identity M = P(O) is exact, but a plain mean of the weight has
    its mass on rare draws with X_2 near X_0 + 1/St, which desk sample
    sizes routinely miss.  After the `trials` draws of `estimate_p_on`,
    M therefore spends `trials` more draws on an importance sampler over
    X_2 whose summands are bounded, so the reported m_se is sound.
    """
    p, p_se, degenerate = estimate_p_on(n, kappa, trials, stream)
    sw = sw2 = 0.0
    for k in _chunks(n, trials):
        w, deg = _mn_importance_chunk(n, kappa, stream, k)
        degenerate += deg
        sw += float(w.sum())
        sw2 += float((w * w).sum())
    m = sw / trials
    m_se = math.sqrt(max(sw2 / trials - m * m, 0.0) / trials)
    return EventIdentityEstimate(
        p_on=p,
        p_se=p_se,
        m_n=m,
        m_se=m_se,
        diff_se=math.sqrt(p_se * p_se + m_se * m_se),
        n_degenerate=degenerate,
    )


@dataclass(frozen=True)
class CountIntegrandEstimate:
    """E[|1 + R/S^2|^2; O]: plain mean, SE, and the median-of-means."""

    mean: float
    se: float
    mom: float
    mom_se: float
    n_degenerate: int


def estimate_t0(n, kappa, trials, stream):
    """Estimate E[|1 + R/S^2|^2; O] (the expected extra components).

    The integrand has heavy tails in principle, so alongside the plain
    mean and its SE, which the acceptance check tests, we report a
    32-block median-of-means, which it only prints.  Its SE is the
    asymptotic standard error of a median of the block means; with
    fewer trials than blocks, each block holds one value.
    """
    parts = []
    degenerate = 0
    for in_event, deg, s, r in _event_chunks(n, kappa, trials, stream, "R"):
        parts.append(np.where(in_event, np.abs(1.0 + r / (s * s)) ** 2, 0.0))
        degenerate += deg
    vals = np.concatenate(parts)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    blocks = min(_MOM_BLOCKS, trials)
    block_means = np.array([p.mean() for p in np.array_split(vals, blocks)])
    mom = float(np.median(block_means))
    mom_se = float(
        math.sqrt(math.pi / 2.0) * block_means.std(ddof=1) / math.sqrt(blocks)
    ) if blocks > 1 else se
    return CountIntegrandEstimate(
        mean=mean, se=se, mom=mom, mom_se=mom_se, n_degenerate=degenerate,
    )
