import math

import mpmath
import numpy as np
import pytest
from scipy.special import spence

from lemlab import analytic as an
from lemlab.quadrature import QuadratureError, adaptive_gauss
from lemlab.rng import derive_substream, sample_disc_array


def test_dilog_special_values():
    assert an.dilog(0.0) == 0.0
    assert an.dilog(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-14)
    closed_half = math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0
    assert an.dilog(0.5) == pytest.approx(closed_half, abs=1e-13)


def test_dilog_against_scipy_spence():
    x = np.linspace(0.0, 1.0, 257)
    assert np.abs(an.dilog(x) - spence(1.0 - x)).max() < 1e-12


def test_dilog_domain():
    with pytest.raises(ValueError):
        an.dilog(-0.1)
    with pytest.raises(ValueError):
        an.dilog(1.1)
    with pytest.raises(ValueError):
        an.dilog(math.nan)
    with pytest.raises(ValueError):
        an.dilog(np.array([0.5, math.nan]))


def test_variance_closed_form():
    v = an.var_log_one_minus_x()
    assert abs(v - (math.pi**2 - 6.0) / 12.0) < 1e-9


def test_variance_quadrature_self_consistency():
    # tightening the tolerance must not move the value
    f = lambda rho: an.dilog(rho * rho) * rho
    coarse, _ = adaptive_gauss(f, 0.0, 1.0, 1e-10)
    fine, _ = adaptive_gauss(f, 0.0, 1.0, 1e-13)
    assert abs(coarse - fine) < 1e-9


def test_variance_against_monte_carlo():
    n = 1_000_000
    x = sample_disc_array(derive_substream(40, 0), n)
    v = np.log(np.abs(1.0 - x))
    sample_var = v.var(ddof=1)
    # delta-method SE for the variance of a (here zero-mean) sample
    m2 = v**2
    se = math.sqrt(max(m2.var(ddof=1), 0.0) / n)
    assert abs(sample_var - an.var_log_one_minus_x()) < 3.0 * se


def test_moment_table_closed_forms():
    tab = an.moments_log_dist(1.0)
    assert tab.u == 0.0
    assert tab.sigma**2 == pytest.approx((math.pi**2 - 6.0) / 12.0, abs=1e-9)
    tab0 = an.moments_log_dist(0.0)
    # with E = Exp(1), log|X| = -E/2: variance 1/4 and third central
    # moment E[((1 - E)/2)^3] = (1 - 3 + 6 - 6)/8 = -1/4
    assert tab0.u == -0.5
    assert tab0.sigma**2 == pytest.approx(0.25, abs=1e-9)
    assert tab0.gamma3 == pytest.approx(-0.25, abs=1e-8)
    assert an.moments_log_dist(0.5).u == pytest.approx(-0.375, abs=1e-15)


def test_moments_against_monte_carlo_r07():
    n = 10_000_000
    r = 0.7
    x = sample_disc_array(derive_substream(41, 0), n)
    t = np.log(np.abs(r - x)) - (r * r - 1.0) / 2.0
    tab = an.moments_log_dist(r)
    m2 = t * t
    se2 = math.sqrt(m2.var(ddof=1) / n)
    assert abs(m2.mean() - tab.sigma**2) < 3.0 * se2
    m3 = m2 * t
    se3 = math.sqrt(m3.var(ddof=1) / n)
    assert abs(m3.mean() - tab.gamma3) < 3.0 * se3


def test_sigma_positive_and_continuous():
    rs = np.linspace(0.5, 1.0, 26)
    sig = np.array([an.moments_log_dist(r).sigma for r in rs])
    assert sig.min() > 0.0
    for r, s in zip(rs, sig):
        s_eps = an.moments_log_dist(min(r + 1e-3, 1.0)).sigma
        assert abs(s_eps - s) < 1e-2


def test_interpolant_agrees_with_quadrature():
    for r in (0.513, 0.777, 0.9321, 0.9993):
        s_i, g_i = an._sigma_gamma_interp(r)
        tab = an.moments_log_dist(r)
        assert abs(s_i - tab.sigma) < 1e-6
        assert abs(g_i - tab.gamma3) < 1e-5
    # an array call is the scalar calls elementwise
    rs = np.linspace(0.4, 1.0, 97)
    s_a, g_a = an._sigma_gamma_interp(rs)
    pairs = [an._sigma_gamma_interp(float(r)) for r in rs]
    assert np.array_equal(s_a, [p[0] for p in pairs])
    assert np.array_equal(g_a, [p[1] for p in pairs])
    # r = 1 and r = 0 are the first and last Chebyshev nodes
    _, _, sig, gam = an._chebyshev_table()
    assert an._sigma_gamma_interp(1.0) == (sig[0], gam[0])
    assert an._sigma_gamma_interp(0.0) == (sig[-1], gam[-1])


def test_moments_domain():
    with pytest.raises(ValueError):
        an.moments_log_dist(-0.1)
    with pytest.raises(ValueError):
        an.moments_log_dist(1.0001)


def test_phi_values_and_symmetry():
    assert an.phi(0.0) == 0.5
    assert abs(an.phi(1.959963985) - 0.975) < 1e-9
    # against an independent high-precision evaluation
    for x in (-3.3, -1.0, 0.123, 2.5, 7.0):
        ref = float(mpmath.ncdf(x))
        assert abs(an.phi(x) - ref) < 1e-12
    xs = np.linspace(-6, 6, 41)
    assert np.abs(an.phi(xs) + an.phi(-xs) - 1.0).max() < 1e-14


def test_cdf_left_tail_within_dkw():
    # empirical CDF of log|r - X| equals e^{2x} for x <= log(1-r),
    # uniformly within the DKW band
    n = 1_000_000
    eps = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))
    for i, r in enumerate((0.3, 0.5, 0.8)):
        x = sample_disc_array(derive_substream(42, i), n)
        v = np.sort(np.log(np.abs(r - x)))
        grid = np.linspace(-8.0, math.log(1.0 - r), 120)
        emp = np.searchsorted(v, grid, side="right") / n
        assert np.abs(emp - np.exp(2.0 * grid)).max() < eps


def test_edgeworth_area_limit():
    val = an.edgeworth_area(10**6, 2.0)
    lim = an.area_limit_constant()
    assert abs(1000.0 * val - lim) / lim < 0.01


def test_edgeworth_area_monotone_in_n():
    vals = [an.edgeworth_area(n, 2.0) for n in (100, 1000, 10000)]
    assert vals[0] > vals[1] > vals[2]


def test_edgeworth_threshold_monotone_in_c_n():
    lo = an.edgeworth_area(400, 2.0, c_n=math.log(800.0) / 400.0)
    hi = an.edgeworth_area(400, 2.0, c_n=math.log(100.0) / 400.0)
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo < hi


def test_edgeworth_q1_flag_small_shift():
    base = an.edgeworth_area(400, 2.0)
    with_q1 = an.edgeworth_area(400, 2.0, include_q1=True)
    assert with_q1 != base
    assert abs(with_q1 - base) < 0.1 * base


def _exact_log_sum_upper_tail(r, n, half_range=64.0, points=2**16):
    """P(sum of n i.i.d. log|r - X| > 0), n even, by FFT convolution.

    The CDF of log|r - X| at t is the area of the disc of radius e^t
    about r inside the unit disc, over pi; it is binned on cells centred
    on -L + k h and the sum, on multiples of h, is read off modulo 2 L.
    """
    from util import _lens_area

    h = 2.0 * half_range / points
    edges = -half_range + h * np.arange(points + 1) - h / 2.0
    cdf = _lens_area(r, np.exp(edges), 1.0) / np.pi
    pmf = np.diff(cdf)
    pmf[0] += cdf[0]
    pmf[-1] += 1.0 - cdf[-1]
    conv = np.fft.irfft(np.fft.rfft(pmf) ** n, points)
    return conv[1:points // 2].sum() + 0.5 * conv[0]


def test_edgeworth_tail_pointwise_against_exact_law(monkeypatch):
    # the integrand of edgeworth_area, read at three radii, is the
    # predicted P(log|P(r)| > 0); the exact law of that sum comes from
    # lens areas alone, and the Edgeworth term must close most of the
    # Gaussian's gap (exact 0.01034, 0.05792, 0.21150 at n = 100)
    n = 100
    radii = np.array([0.85, 0.9, 0.95])
    integrands = []
    quad = an.adaptive_gauss

    def spy(f, lo, hi, tol):
        integrands.append(f)
        return quad(f, lo, hi, tol)

    monkeypatch.setattr(an, "adaptive_gauss", spy)
    tails = {}
    for q1 in (False, True):
        integrands.clear()
        an.edgeworth_area(n, 2.0, include_q1=q1)
        tails[q1] = integrands[0](radii) / radii
    for r, gauss, edge in zip(radii, tails[False], tails[True]):
        exact = _exact_log_sum_upper_tail(r, n)
        assert abs(edge - exact) < 1e-3, r
        assert abs(edge - exact) < 0.2 * abs(gauss - exact), r


def test_edgeworth_interpolant_matches_direct(monkeypatch):
    a = an.edgeworth_area(100, 2.0)

    def direct(r):
        tabs = [an.moments_log_dist(x) for x in r]
        return np.array([t.sigma for t in tabs]), np.array([t.gamma3 for t in tabs])

    monkeypatch.setattr(an, "_sigma_gamma_interp", direct)
    b = an.edgeworth_area(100, 2.0)
    assert a == pytest.approx(b, rel=1e-5)


def test_edgeworth_validation():
    with pytest.raises(ValueError):
        an.edgeworth_area(1, 2.0)
    with pytest.raises(ValueError):
        an.edgeworth_area(100, -1.0)
    with pytest.raises(ValueError):
        an.edgeworth_area(100, 2.0, c_n=-0.1)
    for c_n, kappa in ((math.nan, 2.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            an.edgeworth_area(100, kappa, c_n=c_n)


def test_limit_constant_identities():
    lim = an.limit_constant()
    assert abs(lim - math.sqrt((math.pi**2 / 6.0 - 1.0) / math.pi)) < 1e-15
    # cross identity with the variance computation
    assert abs(lim - math.sqrt(2.0 / math.pi * an.var_log_one_minus_x())) < 1e-12
    assert abs(lim * lim * math.pi + 1.0 - math.pi**2 / 6.0) < 1e-12


def test_quadrature_error_surfaces():
    # a discontinuous integrand with an absurd tolerance must fail loudly
    f = lambda x: np.where(np.sin(1e6 * x) > 0, 1.0, 0.0)
    with pytest.raises(QuadratureError):
        adaptive_gauss(f, 0.0, 1.0, 1e-15, max_depth=8)
    # ... also with one tolerance per component
    g = lambda x: np.stack((f(x), x))
    with pytest.raises(QuadratureError):
        adaptive_gauss(g, 0.0, 1.0, np.array([1e-15, 1e-15]), max_depth=8)
    # a NaN panel meets no budget: it fails at max_depth, not accepted
    with pytest.raises(QuadratureError):
        adaptive_gauss(lambda x: np.full_like(x, math.nan), 0.0, 1.0, 1e-8, max_depth=8)
