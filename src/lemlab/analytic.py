"""Closed forms behind the lemniscate asymptotics.

Central objects: the dilogarithm; the moments of log|r - X| for X
uniform on the unit disc; the Gaussian-plus-skewness prediction for the
expected area of the disc left uncovered by the lemniscate; and the
limiting component-count constant sqrt((zeta(2) - 1)/pi).

The moments of log|r - X| are closed forms in r, for scalar or array r.
With w = 1 - r^2 the mean is u = -w/2, and

    E2 = E[(log|r - X|)^2] = 1/2 - r^2 + Li2(r^2)/2 - w log(w)/2,
    E3 = E[(log|r - X|)^3] = -3/4 + 9 r^2/4 - (3/4) w [Li2(r^2) - 2 log w
                             + log^2 w] - (3/2) S12(r^2),
    gamma3 = E3 - 3 u E2 + 2 u^3,

with w log w = w log^2 w = 0 at r = 1, and Nielsen's polylogarithm
S12(x) = sum_{N >= 2} H_{N-1} x^N / N^2 = (1/2) int_0^x log^2(1 - t)/t dt.

Write X = rho e^{i theta}, M = max(r, rho) and m = min(r, rho)/M.  The
cosine series of log|1 - m e^{i theta}| gives the angular averages of
(log M + log|1 - m e^{i theta}|)^k: log^2 M + Li2(m^2)/2 for k = 2 and
log^3 M + (3/2) log M Li2(m^2) - (3/2) S12(m^2) for k = 3.  Each moment
is then an integral of 2 rho over 0 <= rho <= 1.

- E2.  Its log^2 part is 1/2 + r^2 log r - r^2/2.  Its Li2 part over
  rho < r is r^2 (zeta(2) - 1)/2, since int_0^1 Li2 = zeta(2) - 1.  Over
  rho > r the substitution s = r^2/rho^2 and two integrations by parts
  turn it into Li2(r^2)/2 - r^2 zeta(2)/2 - r^2 log r - w log(w)/2.  The
  sum is 1/2 at r = 0 and (zeta(2) - 1)/2 at r = 1.
- E3.  The part rho < r is r^2 [log^3 r + (3/2)(zeta(2) - 1) log r -
  (3/2)(zeta(3) - 1)], since int_0^1 S12 = zeta(3) - 1.  The part rho > r
  goes through the same substitution and integrations by parts.  Then
  gamma3 is -1/4 at r = 0 (log|X| = -E/2 with E ~ Exp(1)) and
  -(3/2)(zeta(3) - 1) at r = 1.

Li2, Li3 and S12 are power series up to x = 1/2; above it, the
reflection S12(x) = zeta(3) - Li3(1 - x) + log(1 - x) Li2(1 - x) +
log x log^2(1 - x)/2, like dilog's, maps the argument back.  The area
prediction reads sigma(r), and gamma3(r) for its Edgeworth term, on the
node array of each quadrature panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .components import annulus_inner_radius
from .quadrature import adaptive_gauss

ZETA2 = math.pi * math.pi / 6.0
ZETA3 = 1.2020569031595942
#: absolute accuracy demanded of the edgeworth_area integral
AREA_TOL = 1e-8

# series denominators for Li2, Li3 and S12 (its x^1 term is zero); at
# |x| <= 1/2 each tail after 52 terms is below 1e-18
_K = np.arange(1.0, 53.0)
_DEN_LI2 = _K * _K
_DEN_LI3 = _K * _K * _K
_DEN_S12 = np.concatenate(([np.inf], _DEN_LI2[1:] / np.cumsum(1.0 / _K[:-1])))


@dataclass(frozen=True)
class MomentTable:
    """Moments of log|r - X|: mean u, std dev sigma, third central gamma3."""

    r: float
    u: float
    sigma: float
    gamma3: float


def _power_series(x, den):
    """sum_k x^k / den[k - 1], for |x| <= 1/2."""
    out = np.zeros_like(x)
    term = np.ones_like(x)
    for d in den:
        term = term * x
        out += term / d
    return out


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
    series = _power_series(np.where(hi, 1.0 - x, x), _DEN_LI2)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(x == 1.0, 0.0, np.log(x) * np.log1p(-x))
    out = np.where(hi, ZETA2 - cross - series, series)
    return float(out) if scalar else out


def _nielsen_s12(x, y):
    """S12(x) on [0, 1], with y = 1 - x formed by the caller without cancellation.

    Above x = 1/2 the reflection in the module docstring evaluates it
    from the series of Li2(y) and Li3(y).
    """
    x = np.asarray(x, dtype=np.float64)
    hi = x > 0.5
    y = np.where(hi, y, 0.0)
    with np.errstate(divide="ignore"):
        log_y = np.where(y > 0.0, np.log(y), 0.0)
    reflected = (ZETA3 - _power_series(y, _DEN_LI3) + log_y * _power_series(y, _DEN_LI2)
                 + 0.5 * np.log1p(-y) * log_y * log_y)
    return np.where(hi, reflected, _power_series(np.where(hi, 0.0, x), _DEN_S12))[()]


def var_log_one_minus_x():
    """Var(log|1 - X|) = (zeta(2) - 1)/2 = (pi^2 - 6)/12, in closed form.

    The mean of log|1 - X| is 0, so this is the second raw moment at r = 1.
    """
    return float(_second_raw_closed(1.0))


def mean_log_dist(r):
    """u(r) = E[log|r - X|] = (r^2 - 1)/2 for 0 <= r <= 1."""
    return (r * r - 1.0) / 2.0


def _second_raw_closed(r):
    """E[(log|r - X|)^2] in closed form, for scalar or array r (module docstring)."""
    r = np.asarray(r, dtype=np.float64)
    w = (1.0 - r) * (1.0 + r)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_log_w = np.where(w > 0.0, w * np.log(w), 0.0)
    return (0.5 - r * r + 0.5 * dilog(r * r) - 0.5 * w_log_w)[()]


def _third_raw_closed(r):
    """E[(log|r - X|)^3] in closed form, for scalar or array r (module docstring)."""
    r = np.asarray(r, dtype=np.float64)
    x = r * r
    w = (1.0 - r) * (1.0 + r)
    with np.errstate(divide="ignore"):
        log_w = np.where(w > 0.0, np.log(w), 0.0)
    bracket = dilog(x) - 2.0 * log_w + log_w * log_w
    return (-0.75 + 2.25 * x - 0.75 * w * bracket - 1.5 * _nielsen_s12(x, w))[()]


def _sigma_closed(r):
    """sigma(r) = sqrt(E[(log|r - X|)^2] - u(r)^2), exact, for scalar or array r."""
    u = mean_log_dist(r)
    return np.sqrt(_second_raw_closed(r) - u * u)


def _gamma3_closed(r):
    """gamma3(r) = E[(log|r - X| - u)^3], exact, for scalar or array r."""
    r = np.asarray(r, dtype=np.float64)
    u = -0.5 * (1.0 - r) * (1.0 + r)
    return (_third_raw_closed(r) - 3.0 * u * _second_raw_closed(r) + 2.0 * u * u * u)[()]


@lru_cache(maxsize=200_000)
def _moment_triple(r):
    return mean_log_dist(r), float(_sigma_closed(r)), float(_gamma3_closed(r))


def moments_log_dist(r):
    """MomentTable for log|r - X|, 0 <= r <= 1, from the closed forms (module docstring)."""
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

    sigma(r) and gamma3(r) come from their closed forms on each panel's
    node array (see the module docstring); the integral is taken to
    absolute accuracy AREA_TOL.
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
            val -= skew_correction(c_r, sigma, _gamma3_closed(r)) / sqrt_n
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
