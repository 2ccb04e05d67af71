"""Closed forms and quadratures behind the lemniscate asymptotics.

Central objects: the dilogarithm; the moments of log|r - X| for X
uniform on the unit disc; the Gaussian-plus-skewness prediction for the
expected area of the disc left uncovered by the lemniscate; and the
limiting component-count constant sqrt((zeta(2) - 1)/pi).

The moments u(r), sigma(r), gamma3(r) of log|r - X| come from the polar
quadrature

    (1/pi) int_0^1 int_0^{2pi} g(log|r - rho e^{i theta}|) rho dtheta drho,

which is the authoritative definition here.  The second moment is
additionally validated, on every evaluation, against the independent
form

    int_0^1 2 rho [ (log max(r, rho))^2 + Li2((min/max)^2)/2 ] drho,

obtained by expanding log|1 - m e^{i theta}| in its cosine series and
integrating term by term.  Each quadrature panel is one array
expression over its nodes.

sigma(r) and gamma3(r) are analytic on [0, 1], so the area prediction,
which needs them at hundreds of radii per call, reads them from a
Chebyshev interpolant of 65 moments_log_dist values, built once per
process, accurate to ~1e-12 and taking scalars or arrays of r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import _NODES16, _WEIGHTS16, adaptive_gauss

ZETA2 = math.pi * math.pi / 6.0

#: absolute accuracy demanded of the polar second-moment quadrature
SIGMA_TOL = 5e-10
#: absolute accuracy demanded of the polar third-moment quadrature
GAMMA3_TOL = 1e-8
#: required agreement between the polar and cosine-series second moments
CROSS_CHECK_TOL = 1e-6
#: absolute accuracy demanded of the edgeworth_area integral
AREA_TOL = 1e-8


class MomentMismatchError(RuntimeError):
    """Polar and cosine-series second moments disagree beyond tolerance."""


@dataclass(frozen=True)
class MomentTable:
    """Moments of log|r - X|: mean u, std dev sigma, third central gamma3."""

    r: float
    u: float
    sigma: float
    gamma3: float


def dilog(x):
    """Li2(x) = sum x^n / n^2 on [0, 1], to absolute accuracy 1e-12.

    For x > 1/2 the reflection Li2(x) + Li2(1-x) = pi^2/6 - ln x ln(1-x)
    maps the argument back to the fast-converging half of the range.
    """
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("dilog requires 0 <= x <= 1")
    hi = x > 0.5
    series = _dilog_series(np.where(hi, 1.0 - x, x))
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(x == 1.0, 0.0, np.log(x) * np.log1p(-x))
    out = np.where(hi, ZETA2 - cross - series, series)
    return float(out) if scalar else out


def _dilog_series(x):
    # |x| <= 1/2: 0.5^52/52^2 < 1e-19, so 52 terms are ample
    out = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(1, 53):
        term = term * x
        out += term / (k * k)
    return out


def var_log_one_minus_x():
    """Var(log|1 - X|) = (zeta(2) - 1)/2 = (pi^2 - 6)/12, by quadrature.

    Evaluates int_0^1 Li2(rho^2) rho drho (the angular average of
    (log|1 - rho e^{i theta}|)^2) and asserts agreement with the closed
    form to 1e-9 before returning the quadrature value.  The mean of
    log|1 - X| is zero, so this second moment is the variance.
    """
    value, _ = adaptive_gauss(lambda rho: dilog(rho * rho) * rho, 0.0, 1.0, 1e-12)
    closed = (math.pi * math.pi - 6.0) / 12.0
    if abs(value - closed) > 1e-9:
        raise MomentMismatchError(
            "dilog quadrature %r vs closed form %r" % (value, closed)
        )
    return value


def mean_log_dist(r):
    """u(r) = E[log|r - X|] = (r^2 - 1)/2 for 0 <= r <= 1."""
    return (r * r - 1.0) / 2.0


_THETA_DEPTH = 48


@lru_cache(maxsize=None)
def _theta_rule():
    # composite GL-16 on [0, pi], panels graded geometrically toward the
    # (potential) logarithmic peak at theta = 0; fixed depth so the rule,
    # viewed as a function of rho, is perfectly smooth
    edges = np.pi * 2.0 ** (-np.arange(_THETA_DEPTH + 1, dtype=np.float64))
    los = np.concatenate(([0.0], edges[::-1][:-1]))
    his = edges[::-1]
    mids = 0.5 * (los + his)
    halfs = 0.5 * (his - los)
    nodes = (mids[:, None] + halfs[:, None] * _NODES16).ravel()
    weights = (halfs[:, None] * _WEIGHTS16).ravel()
    return np.sin(0.5 * nodes) ** 2, weights


def _split_at(f, r, tol):
    """int_0^1 f, split at the kink rho = r when 0 < r < 1."""
    if 0.0 < r < 1.0:
        va, _ = adaptive_gauss(f, 0.0, r, 0.5 * tol)
        vb, _ = adaptive_gauss(f, r, 1.0, 0.5 * tol)
        return va + vb
    value, _ = adaptive_gauss(f, 0.0, 1.0, tol)
    return value


def _polar_central_moments(r):
    """(second, third) central moments of log|r - X| by polar quadrature.

    Each rho panel meets the whole theta rule as one array, with
    |r - rho e^{i theta}|^2 = (r - rho)^2 + 4 r rho sin^2(theta/2),
    which stays accurate to the last ulp even when theta is tiny and
    rho is within roundoff of r.
    """
    sin2half, weights = _theta_rule()
    u = mean_log_dist(r)

    def outer(rho):
        g = (r - rho[:, None]) ** 2 + (4.0 * r * rho[:, None]) * sin2half
        t = 0.5 * np.log(np.maximum(g, 1e-300)) - u
        t2 = t * t
        scale = 2.0 * rho / math.pi
        return np.stack((scale * (t2 @ weights), scale * ((t2 * t) @ weights)))

    m2, m3 = _split_at(outer, r, np.array([SIGMA_TOL, GAMMA3_TOL]))
    return float(m2), float(m3)


def _cosine_series_second_raw(r):
    """E[(log|r - X|)^2] from the term-by-term cosine-series form."""

    def f(rho):
        mx = np.maximum(r, rho)
        mn = np.minimum(r, rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            lm = np.where(mx > 0, np.log(np.where(mx > 0, mx, 1.0)), 0.0)
            ratio = np.where(mx > 0, mn / np.where(mx > 0, mx, 1.0), 0.0)
        return 2.0 * rho * (lm * lm + 0.5 * dilog(ratio * ratio))

    return _split_at(f, r, 1e-9)


@lru_cache(maxsize=200_000)
def _moment_triple(r):
    u = mean_log_dist(r)
    m2c, m3c = _polar_central_moments(r)
    raw2_polar = m2c + u * u
    raw2_series = _cosine_series_second_raw(r)
    if abs(raw2_polar - raw2_series) > CROSS_CHECK_TOL:
        raise MomentMismatchError(
            "second moment of log|%g - X|: polar %r vs series %r"
            % (r, raw2_polar, raw2_series)
        )
    return u, math.sqrt(m2c), m3c


def moments_log_dist(r):
    """MomentTable for log|r - X|, 0 <= r <= 1 (see module docstring)."""
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    u, sigma, gamma3 = _moment_triple(r)
    return MomentTable(r=r, u=u, sigma=sigma, gamma3=gamma3)


def phi(x):
    """Standard normal CDF (scipy's ndtr: |error| well below 1e-12).

    scipy is imported lazily so that the closed-form constants stay
    importable in well under a second.
    """
    from scipy.special import ndtr

    out = ndtr(x)
    return float(out) if np.isscalar(x) else out


_CHEB_N = 64


@lru_cache(maxsize=None)
def _chebyshev_table():
    j = np.arange(_CHEB_N + 1)
    nodes = 0.5 * (1.0 + np.cos(np.pi * j / _CHEB_N))
    weights = np.where(j % 2 == 0, 1.0, -1.0)
    weights[[0, -1]] *= 0.5
    _, sig, gam = np.array([_moment_triple(float(r)) for r in nodes]).T
    return nodes, weights, sig, gam


def _sigma_gamma_interp(r):
    """(sigma, gamma3) at r, a scalar or an array, from the Chebyshev table.

    An r within 1e-14 of a node returns that node's table values.
    """
    nodes, weights, sig, gam = _chebyshev_table()
    d = np.asarray(r, dtype=np.float64)[..., None] - nodes
    hit = np.abs(d) < 1e-14
    q = weights / np.where(hit, 1.0, d)
    denom = q.sum(axis=-1)
    at = hit.argmax(axis=-1)
    on_node = hit.any(axis=-1)
    sigma = np.where(on_node, sig[at], (q * sig).sum(axis=-1) / denom)
    gamma3 = np.where(on_node, gam[at], (q * gam).sum(axis=-1) / denom)
    return sigma[()], gamma3[()]


def skew_correction(x, sigma, gamma3):
    """Edgeworth first correction: -gamma3/(6 sqrt(2 pi) sigma^3) (x^2-1) e^{-x^2/2}.

    The standardized sum of n terms has CDF Phi(x) + skew_correction/sqrt(n)
    + O(1/n), so its upper tail takes the correction with a minus sign.
    """
    return (
        -gamma3
        / (6.0 * math.sqrt(2.0 * math.pi) * sigma**3)
        * (x * x - 1.0)
        * np.exp(-0.5 * x * x)
    )


def edgeworth_area(n, kappa, c_n=0.0, include_q1=False):
    """Predicted P-weighted area 2 pi int (1 - Phi(C_r) [- Q1/sqrt n]) r dr.

    The integral runs over the annulus radii [1 - kappa sqrt(log n / n), 1]
    with the standardized threshold C_r = (n c_n - n u(r)) / (sqrt n
    sigma(r)).  With c_n = 0 this is the prediction for the expected area
    of the unit disc not covered by the lemniscate, accurate to O(1/n).
    The caller keeps sqrt(n) * c_n small; that is the regime where the
    expansion is valid.  include_q1 adds the Edgeworth term, with Q1 =
    skew_correction(C_r, sigma(r), gamma3(r)).

    sigma(r) and gamma3(r) come from the Chebyshev interpolant (see the
    module docstring); the integral is taken to absolute accuracy AREA_TOL.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    if not kappa > 0:
        raise ValueError("kappa > 0 required")
    if not c_n >= 0:
        raise ValueError("c_n >= 0 required")
    sqrt_n = math.sqrt(n)
    lo = max(0.0, 1.0 - kappa * math.sqrt(math.log(n) / n))

    def integrand(r):
        r = np.minimum(r, 1.0)
        sigma, gamma3 = _sigma_gamma_interp(r)
        c_r = sqrt_n * (c_n - mean_log_dist(r)) / sigma
        val = 1.0 - phi(c_r)
        if include_q1:
            val -= skew_correction(c_r, sigma, gamma3) / sqrt_n
        return val * r

    value, _ = adaptive_gauss(integrand, lo, 1.0, AREA_TOL)
    return 2.0 * math.pi * value


def limit_constant():
    """sqrt((zeta(2) - 1)/pi): the n -> infinity limit of E[components]/sqrt(n).

    Equals sqrt(2/pi * Var(log|1 - X|)) since Var(log|1 - X|) =
    (zeta(2) - 1)/2.
    """
    return math.sqrt((ZETA2 - 1.0) / math.pi)


def area_limit_constant():
    """sqrt(pi (zeta(2) - 1)): the limit of sqrt(n) * edgeworth_area(n, ...)."""
    return math.sqrt(math.pi * (ZETA2 - 1.0))
