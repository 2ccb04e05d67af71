import math

import numpy as np
import pytest

from lemlab.polyeval import RootedPolynomial, log_abs_p, recip_sums
from lemlab.rng import derive_substream, sample_disc_array

from util import coeffs_from_roots, disc_points, polyder_coeffs, polyval_coeffs


def sums(roots, z, skip=()):
    """(S, R) over the roots not in `skip`, from the kernel."""
    return recip_sums(z - np.delete(roots, list(skip)))


def test_single_factor():
    poly = RootedPolynomial([0.5])
    assert log_abs_p(poly, 0.0) == pytest.approx(math.log(0.5), abs=1e-15)


def test_matches_coefficient_oracle_small_degrees():
    rng = np.random.default_rng(1)
    for n in range(1, 9):
        roots = disc_points(rng, n) * 0.95
        poly = RootedPolynomial(roots)
        c = coeffs_from_roots(roots)
        dc = polyder_coeffs(c)
        for z in disc_points(rng, 20) * 1.8:
            ref = polyval_coeffs(c, z)
            if abs(ref) < 1e-12:
                continue
            assert log_abs_p(poly, z) == pytest.approx(
                math.log(abs(ref)), rel=1e-10
            )
            # S equals P'/P
            ref_s = polyval_coeffs(dc, z) / ref
            assert sums(roots, z)[0] == pytest.approx(ref_s, rel=1e-10)
            if n >= 2:
                assert log_abs_p(poly, z, {0}) == pytest.approx(
                    math.log(abs(ref / (z - roots[0]))), rel=1e-10
                )


def test_expected_log_modulus_scales_with_degree():
    # E[log|P(z)|] = n (|z|^2 - 1)/2
    n, trials = 16, 100_000
    z = 0.35 - 0.55j
    pts = sample_disc_array(derive_substream(3, 0), n * trials).reshape(trials, n)
    vals = np.log(np.abs(z - pts)).sum(axis=1)
    se = vals.std(ddof=1) / np.sqrt(trials)
    assert abs(vals.mean() - n * (abs(z) ** 2 - 1.0) / 2.0) < 3.0 * se


def test_s_sum_trivial_and_mean():
    assert sums(np.array([0.0j]), 0.5)[0] == pytest.approx(2.0 + 0.0j, abs=1e-15)
    # mean of S(z)/n over trials -> conj(z)
    n, trials = 8, 200_000
    z = 0.25 + 0.55j
    pts = sample_disc_array(derive_substream(4, 0), n * trials).reshape(trials, n)
    v = (1.0 / (z - pts)).sum(axis=1) / n
    for part, target in ((v.real, z.real), (v.imag, -z.imag)):
        se = part.std(ddof=1) / np.sqrt(trials)
        assert abs(part.mean() - target) < 3.0 * se


def test_r_sum_trivial_and_derivative_identity():
    assert sums(np.array([0.0j]), 0.5)[1] == pytest.approx(4.0 + 0.0j, abs=1e-14)
    # P'^2 - P P'' = P^2 sum 1/(z - x_k)^2, against the coefficient oracle
    rng = np.random.default_rng(2)
    for n in range(2, 9):
        roots = disc_points(rng, n) * 0.9
        c = coeffs_from_roots(roots)
        dc = polyder_coeffs(c)
        ddc = polyder_coeffs(dc)
        for z in disc_points(rng, 20) * 1.5:
            p = polyval_coeffs(c, z)
            dp = polyval_coeffs(dc, z)
            ddp = polyval_coeffs(ddc, z)
            lhs = dp * dp - p * ddp
            rhs = p * p * sums(roots, z)[1]
            assert lhs == pytest.approx(rhs, rel=1e-8)


def test_skip_additivity():
    rng = np.random.default_rng(5)
    roots = disc_points(rng, 10) * 0.9
    for _ in range(50):
        z = 2.0 * (rng.random() + 1j * rng.random()) - (1 + 1j)
        j = int(rng.integers(0, 10))
        skip = set(int(k) for k in rng.choice(10, size=3, replace=False)) - {j}
        sa, ra = sums(roots, z, skip | {j})
        sb, rb = sums(roots, z, skip)
        assert sa + 1.0 / (z - roots[j]) == pytest.approx(sb, rel=1e-12, abs=1e-12)
        assert ra + 1.0 / (z - roots[j]) ** 2 == pytest.approx(rb, rel=1e-12, abs=1e-12)


def test_conjugation_equivariance():
    rng = np.random.default_rng(6)
    roots = disc_points(rng, 7) * 0.9
    for z in disc_points(rng, 25) * 1.4:
        assert sums(np.conj(roots), np.conj(z))[0] == pytest.approx(
            np.conj(sums(roots, z)[0]), abs=1e-14, rel=1e-14
        )


def test_log_modulus_bounds_on_radius_two_circle():
    # 1 <= |z - x| <= 3 on |z| = 2, so 0 <= log|P| <= n log 3
    pts = sample_disc_array(derive_substream(8, 0), 40)
    poly = RootedPolynomial(pts)
    z = 2.0 * np.exp(2j * np.pi * np.arange(100) / 100.0)
    vals = log_abs_p(poly, z)
    assert vals.min() >= 0.0
    assert vals.max() <= 40 * math.log(3.0)


def test_log_abs_q_examples():
    poly = RootedPolynomial([0.0, 0.5])
    assert log_abs_p(poly, 0.25, {0}) == pytest.approx(math.log(0.25), abs=1e-12)
    # factorization: log|Q| + log|z - x_skip| = log|P|
    rng = np.random.default_rng(7)
    roots = disc_points(rng, 9) * 0.9
    poly = RootedPolynomial(roots)
    for z in disc_points(rng, 10) * 1.3:
        for j in (0, 4, 8):
            lhs = log_abs_p(poly, z, {j}) + math.log(abs(z - roots[j]))
            assert lhs == pytest.approx(log_abs_p(poly, z), rel=1e-12, abs=1e-12)


def test_root_coincidence_handling():
    poly = RootedPolynomial([0.25 + 0.25j, -0.5])
    assert log_abs_p(poly, 0.25 + 0.25j) == -np.inf


def test_construction_validation():
    with pytest.raises(ValueError):
        RootedPolynomial([0.3, 0.3])
    with pytest.raises(ValueError):
        RootedPolynomial([1.5])
    with pytest.raises(ValueError):
        RootedPolynomial([])
    RootedPolynomial([1.0, -1.0, 1j])  # closed-disc boundary points allowed
