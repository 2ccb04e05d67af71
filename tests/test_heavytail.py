import math

import numpy as np
import pytest

from lemlab.heavytail import (
    MiddleRangeUnsupported,
    cdf_y_tail,
    sample_y,
    single_jump_prediction,
    tail_law,
    walk_interval_prob_mc,
)
from lemlab.rng import derive_substream, sample_disc_array

from util import median_of_means


def test_cut_points():
    law = tail_law(0.5)
    assert law.left_cut == pytest.approx(0.5 - 1.0 / 1.5)
    assert law.right_cut == pytest.approx(0.5 + 2.0)
    assert law.left_cut < 0.5 < law.right_cut
    with pytest.raises(ValueError):
        tail_law(0.0)
    with pytest.raises(ValueError):
        tail_law(1.0)


def test_increment_formula_plug_in():
    # X = 0 gives Y = r - 1/r; at r = 0.5 that is -1.5
    r = 0.5
    assert r - (1.0 / (r - 0.0)).real == pytest.approx(-1.5)
    # sampled increments reproduce the formula against the same stream
    s1 = derive_substream(50, 0)
    s2 = derive_substream(50, 0)
    y = sample_y(r, s1, count=1000)
    x = sample_disc_array(s2, 1000)
    assert np.allclose(y, r - (1.0 / (r - x)).real)


def test_cdf_values_at_cuts():
    # left cut: F = (1+r)^2/4; right cut: 1 - 1/(4 (r-t)^2)
    assert cdf_y_tail(0.5, -1.0 / 6.0) == pytest.approx(0.5625, abs=1e-12)
    assert cdf_y_tail(0.5, 2.5) == pytest.approx(1.0 - 1.0 / 16.0, abs=1e-12)
    with pytest.raises(MiddleRangeUnsupported):
        cdf_y_tail(0.5, 0.0)


def test_left_cut_probability_empirical():
    n = 1_000_000
    y = sample_y(0.5, derive_substream(51, 0), count=n)
    p_hat = float(np.mean(y <= -1.0 / 6.0))
    p = 0.5625
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(p_hat - p) < 3.0 * se


def test_mean_zero_by_median_of_means():
    n = 1_000_000
    y = sample_y(0.5, derive_substream(52, 0), count=n)
    blocks = np.array([b.mean() for b in np.array_split(y, 32)])
    mom = median_of_means(y, blocks=32)
    se = 1.2533 * blocks.std(ddof=1) / math.sqrt(32)
    assert abs(mom) < 3.0 * se


@pytest.mark.parametrize("r", [0.3, 0.5, 0.8])
def test_tail_cdf_sup_distance(r):
    n = 1_000_000
    y = np.sort(sample_y(r, derive_substream(53, int(10 * r)), count=n))
    law = tail_law(r)
    sup = 0.0
    # quantile-spaced grids in both exact-tail ranges
    for f in np.geomspace(1e-4, 1.0, 80):
        t = r - 1.0 / (2.0 * math.sqrt(f * (1.0 + r) ** 2 / 4.0))
        t = min(t, law.left_cut)
        emp = np.searchsorted(y, t, side="right") / n
        sup = max(sup, abs(emp - cdf_y_tail(r, t)))
    for f in np.geomspace(1e-4, 1.0, 80):
        q = f * 1.0 / (4.0 * (law.right_cut - r) ** 2)
        t = r + 1.0 / (2.0 * math.sqrt(q))
        t = max(t, law.right_cut)
        emp = np.searchsorted(y, t, side="right") / n
        sup = max(sup, abs(emp - cdf_y_tail(r, t)))
    assert sup < 0.005


def test_truncated_moment_bounds():
    n = 10_000_000
    y = sample_y(0.5, derive_substream(54, 0), count=n)
    for m in (10.0, 100.0):
        trunc = y[np.abs(y) <= m]
        mu = trunc.sum() / n
        assert abs(mu) <= 5.0 / m
    v100 = float((y[np.abs(y) <= 100.0] ** 2).sum() / n)
    v1000 = float((y[np.abs(y) <= 1000.0] ** 2).sum() / n)
    ratio = v1000 / v100
    # log-growth of the truncated second moment: the ratio brackets
    # log(1000)/log(100) = 1.5
    assert 0.8 <= ratio <= 3.0


def test_walk_interval_null_and_monotone():
    est = walk_interval_prob_mc(0.5, 10, 1.0, 1.0, 20_000, derive_substream(55, 0))
    assert est.estimate == 0.0 and est.se == 0.0
    # common random numbers: larger b can only include more walks
    e1 = walk_interval_prob_mc(0.5, 10, 0.0, 1.0, 20_000, derive_substream(55, 1))
    e2 = walk_interval_prob_mc(0.5, 10, 0.0, 3.0, 20_000, derive_substream(55, 1))
    assert e2.estimate >= e1.estimate


def test_single_jump_prediction_values():
    assert single_jump_prediction(0.9, 200, 100.0, 100.0) == 0.0
    # direct arithmetic: n [1/(4 (a-r)^2) - 1/(4 (b-r)^2)]
    val = single_jump_prediction(0.9, 200, 100.0, 110.0)
    direct = 200.0 * (1.0 / (4.0 * 99.1**2) - 1.0 / (4.0 * 109.1**2))
    assert val == pytest.approx(direct, rel=1e-14)
    assert val == pytest.approx(8.9e-4, rel=0.02)
    assert single_jump_prediction(0.9, 400, 100.0, 110.0) == pytest.approx(
        2.0 * val, rel=1e-14
    )
    with pytest.raises(ValueError):
        single_jump_prediction(0.5, 10, 1.0, 2.0)  # below the right cut
    with pytest.raises(ValueError):
        single_jump_prediction(0.9, 10, 120.0, 110.0)


def test_walk_interval_matches_exact_convolution():
    # independent route to the same probability: exact increment CDF
    # (circle-intersection areas) convolved n times in Fourier space
    from util import exact_walk_interval_prob

    r, n = 0.9, 50
    a, b = 25.0, 30.0
    est = walk_interval_prob_mc(r, n, a, b, 250_000, derive_substream(56, 0))
    exact = exact_walk_interval_prob(r, n, a, b)
    assert abs(est.estimate - exact) < 3.0 * est.se


def test_single_jump_reaches_asymptote_deep_in_the_tail():
    # the one-big-increment formula is an n -> infinity statement; deep
    # thresholds (a >> walk spread) put the exact law on top of it
    from util import exact_walk_interval_prob

    r, n = 0.9, 200
    for a, b, tol in ((500.0, 550.0, 0.05), (2000.0, 2200.0, 0.01)):
        exact = exact_walk_interval_prob(r, n, a, b)
        pred = single_jump_prediction(r, n, a, b)
        assert exact == pytest.approx(pred, rel=tol)
