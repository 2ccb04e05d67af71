import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats

from lemlab.rng import RngStream, derive_substream, sample_disc_array


def test_substreams_deterministic():
    a = derive_substream(42, 7).uniforms(64)
    b = derive_substream(42, 7).uniforms(64)
    assert np.array_equal(a, b)


def test_substreams_distinct():
    a = derive_substream(42, 0).uniforms(64)
    b = derive_substream(42, 1).uniforms(64)
    assert not np.any(a == b)


def test_chunking_does_not_change_stream():
    s1 = derive_substream(9, 3)
    s2 = derive_substream(9, 3)
    whole = s1.uniforms(101)
    parts = np.concatenate([s2.uniforms(7), s2.uniforms(90), s2.uniforms(4)])
    assert np.array_equal(whole, parts)
    assert s2.counter == 101


def test_polar_construction_is_the_documented_one():
    # points must come from radius = sqrt(u1), angle = 2 pi u2 applied to
    # the raw Philox(key=(seed, stream)) double stream, pairs in order
    raw = Generator(Philox(key=np.array([5, 11], dtype=np.uint64))).random(8)
    expect = np.sqrt(raw[0::2]) * np.exp(2j * np.pi * raw[1::2])
    got = sample_disc_array(derive_substream(5, 11), 4)
    assert np.array_equal(got, expect)


def test_support_strictly_inside_disc():
    z = sample_disc_array(derive_substream(1, 0), 100_000)
    assert np.abs(z).max() < 1.0


def test_mean_of_samples_near_zero():
    n = 1_000_000
    z = sample_disc_array(derive_substream(2024, 0), n)
    tol = 3.0 * (1.0 / np.sqrt(2.0)) / np.sqrt(n)
    assert abs(z.real.mean()) < tol
    assert abs(z.imag.mean()) < tol


def test_mean_of_reciprocal_is_conjugate():
    # E[1/(z0 - X)] = conj(z0) for z0 in the disc
    n = 1_000_000
    z0 = 0.3 + 0.4j
    x = sample_disc_array(derive_substream(7, 0), n)
    v = 1.0 / (z0 - x)
    for part, target in ((v.real, z0.real), (v.imag, -z0.imag)):
        se = part.std(ddof=1) / np.sqrt(n)
        assert abs(part.mean() - target) < 3.0 * se


def test_uniformity_chi2_equal_area_sectors():
    n = 1_000_000
    z = sample_disc_array(derive_substream(13, 0), n)
    ring = np.floor(8.0 * np.abs(z) ** 2).astype(int)
    ang = np.floor(8.0 * (np.angle(z) / (2.0 * np.pi) % 1.0)).astype(int)
    counts = np.bincount(np.clip(ring, 0, 7) * 8 + ang, minlength=64)
    expected = n / 64.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(1.0 - 1e-3, 63)


@pytest.mark.parametrize("r", [0.0, 0.5, 0.9, 1.0])
def test_mean_log_distance_closed_form(r):
    n = 1_000_000
    x = sample_disc_array(derive_substream(77, int(r * 10)), n)
    v = np.log(np.abs(r - x))
    se = v.std(ddof=1) / np.sqrt(n)
    assert abs(v.mean() - (r * r - 1.0) / 2.0) < 3.0 * se


@pytest.mark.parametrize("x", [-2.0, -1.5, -1.0])
def test_log_distance_left_tail_is_exponential(x):
    # P(log|r - X| <= x) = e^{2x} whenever x <= log(1 - r)
    r = 0.5
    assert x <= np.log(1.0 - r)
    n = 1_000_000
    pts = sample_disc_array(derive_substream(78, int(10 * x)), n)
    p_hat = float(np.mean(np.log(np.abs(r - pts)) <= x))
    p = np.exp(2.0 * x)
    se = np.sqrt(p * (1.0 - p) / n)
    assert abs(p_hat - p) < 3.0 * se


def test_stream_is_value_like():
    s = RngStream(3, 4)
    assert s.master_seed == 3 and s.stream_index == 4 and s.counter == 0
    s.uniforms(10)
    assert s.counter == 10
