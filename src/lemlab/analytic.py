"""Closed forms and quadratures behind the lemniscate asymptotics.

Central objects: the dilogarithm; the moments of log|r - X| for X
uniform on the unit disc; the Gaussian-plus-skewness prediction for the
expected area of the disc left uncovered by the lemniscate; and the
limiting component-count constant sqrt((zeta(2) - 1)/pi).

The moments u(r), sigma(r), gamma3(r) of log|r - X| come from the polar
quadrature

    (1/pi) int_0^1 int_0^{2pi} g(log|r - rho e^{i theta}|) rho dtheta drho,

which is the authoritative definition here.  Each quadrature panel is
one array expression over its nodes.  The second moment is checked, on
every evaluation, against its closed form

    E[(log|r - X|)^2] = 1/2 - r^2 + Li2(r^2)/2 - w log(w)/2,

with w = 1 - r^2 and w log w = 0 at r = 1.  Expanding log|1 - m e^{i theta}|
in its cosine series gives the angular average, and with it the integral
int_0^1 2 rho [ (log max(r, rho))^2 + Li2((min/max)^2)/2 ] drho.  Its
log^2 part is 1/2 + r^2 log r - r^2/2.  Its Li2 part over rho < r is
r^2 (zeta(2) - 1)/2, since int_0^1 Li2 = zeta(2) - 1.  Over rho > r the
substitution s = r^2/rho^2 and two integrations by parts turn it into
Li2(r^2)/2 - r^2 zeta(2)/2 - r^2 log r - w log(w)/2.  The sum is 1/2 at
r = 0 and (zeta(2) - 1)/2 at r = 1.

The area prediction needs sigma(r) at hundreds of radii per call and
reads it from that closed form, which is exact and takes scalars or
arrays of r.  Its Edgeworth term reads gamma3(r) from the polar
quadrature at each node of the area integral, through the same cache
as moments_log_dist.  Var(log|1 - X|) is the polar variance at r = 1,
checked against the closed form like every other radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .components import annulus_inner_radius
from .quadrature import _NODES16, _WEIGHTS16, adaptive_gauss

ZETA2 = math.pi * math.pi / 6.0

#: absolute accuracy demanded of the polar second-moment quadrature
SIGMA_TOL = 5e-10
#: absolute accuracy demanded of the polar third-moment quadrature
GAMMA3_TOL = 1e-8
#: required agreement between the polar and closed-form second moments;
#: the form is exact, so this bounds the polar quadrature's own error
CROSS_CHECK_TOL = 2.0 * SIGMA_TOL
#: absolute accuracy demanded of the edgeworth_area integral
AREA_TOL = 1e-8


class MomentMismatchError(RuntimeError):
    """Polar and closed-form second moments disagree beyond tolerance."""


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
    """Var(log|1 - X|) = (zeta(2) - 1)/2 = (pi^2 - 6)/12, by polar quadrature.

    The polar variance at r = 1, which moments_log_dist has checked
    against the closed form to CROSS_CHECK_TOL (MomentMismatchError
    otherwise).
    """
    return moments_log_dist(1.0).sigma ** 2


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
        # in place: a fresh 96 KiB array per step ran up to 1.8x slower in some heap layouts
        t = (4.0 * r * rho[:, None]) * sin2half
        t += (r - rho[:, None]) ** 2
        t = 0.5 * np.log(np.maximum(t, 1e-300, out=t), out=t) - u
        t2 = t * t
        scale = 2.0 * rho / math.pi
        return np.stack((scale * (t2 @ weights), scale * ((t2 * t) @ weights)))

    tol = np.array([SIGMA_TOL, GAMMA3_TOL])
    if 0.0 < r < 1.0:  # split at the kink rho = r
        va, _ = adaptive_gauss(outer, 0.0, r, 0.5 * tol)
        vb, _ = adaptive_gauss(outer, r, 1.0, 0.5 * tol)
        m2, m3 = va + vb
    else:
        (m2, m3), _ = adaptive_gauss(outer, 0.0, 1.0, tol)
    return float(m2), float(m3)


def _second_raw_closed(r):
    """E[(log|r - X|)^2] in closed form, for scalar or array r (module docstring)."""
    r = np.asarray(r, dtype=np.float64)
    w = (1.0 - r) * (1.0 + r)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_log_w = np.where(w > 0.0, w * np.log(w), 0.0)
    return (0.5 - r * r + 0.5 * dilog(r * r) - 0.5 * w_log_w)[()]


def _sigma_closed(r):
    """sigma(r) = sqrt(E[(log|r - X|)^2] - u(r)^2), exact, for scalar or array r."""
    u = mean_log_dist(r)
    return np.sqrt(_second_raw_closed(r) - u * u)


@lru_cache(maxsize=200_000)
def _moment_triple(r):
    u = mean_log_dist(r)
    m2c, m3c = _polar_central_moments(r)
    raw2_polar = m2c + u * u
    raw2_closed = _second_raw_closed(r)
    if abs(raw2_polar - raw2_closed) > CROSS_CHECK_TOL:
        raise MomentMismatchError(
            "second moment of log|%g - X|: polar %r vs closed form %r"
            % (r, raw2_polar, raw2_closed)
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

    sigma(r) comes from its closed form and gamma3(r) from the polar
    quadrature at each node (see the module docstring); the integral is
    taken to absolute accuracy AREA_TOL.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    lo = max(0.0, annulus_inner_radius(n, kappa))
    if not c_n >= 0:
        raise ValueError("c_n >= 0 required")
    sqrt_n = math.sqrt(n)

    def integrand(r):
        r = np.minimum(r, 1.0)
        sigma = _sigma_closed(r)
        c_r = sqrt_n * (c_n - mean_log_dist(r)) / sigma
        val = 1.0 - phi(c_r)
        if include_q1:
            gamma3 = np.array([_moment_triple(float(x))[2] for x in r])
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
