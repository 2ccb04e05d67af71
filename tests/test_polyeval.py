import math

import numpy as np
import pytest

from lemlab.polyeval import (
    BLOCK_PAIRS,
    RootedPolynomial,
    log_abs_p,
    log_modulus,
    pair_sums,
    recip_sums,
)
from lemlab.rng import derive_substream, sample_disc_array

from util import coeffs_from_roots, disc_points, polyder_coeffs, polyval_coeffs


def sums(roots, z, skip=()):
    """(S, R) over the roots not in `skip`, from the kernel."""
    return recip_sums(z - np.delete(roots, list(skip)))


def log_q(roots, z, k):
    """log|P(z)/(z - x_k)|, as log|P| of the roots other than x_k."""
    return log_abs_p(RootedPolynomial(np.delete(roots, k)), z)


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
                assert log_q(roots, z, 0) == pytest.approx(
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
    assert log_q(poly.roots, 0.25, 0) == pytest.approx(math.log(0.25), abs=1e-12)
    # factorization: log|Q| + log|z - x_skip| = log|P|
    rng = np.random.default_rng(7)
    roots = disc_points(rng, 9) * 0.9
    poly = RootedPolynomial(roots)
    for z in disc_points(rng, 10) * 1.3:
        for j in (0, 4, 8):
            lhs = log_q(roots, z, j) + math.log(abs(z - roots[j]))
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


def test_close_pair_found_past_a_nearer_real_part():
    # roots 0 and 2 are 0.85e-15 apart; root 1 sits between them in real
    # part but 0.5 away, so the pair is not adjacent in real-part order
    roots = [0.3, 0.3 + 0.3e-15 + 0.5j, 0.3 + 0.6e-15 + 0.6e-15j]
    with pytest.raises(ValueError, match="roots 0 and 2 coincide within 1e-15"):
        RootedPolynomial(roots)
    with pytest.raises(ValueError, match="roots 2 and 0 coincide"):
        RootedPolynomial(roots[::-1])


@pytest.mark.parametrize("n", [37, BLOCK_PAIRS + 3])
def test_blocked_pass_equals_one_shot_kernels_bitwise(n):
    # block boundaries at m = 1, rows - 1, rows, rows + 1 and 3 rows + 5;
    # above BLOCK_PAIRS roots a block is one row
    roots = sample_disc_array(derive_substream(21, n), n)
    poly = RootedPolynomial(roots)
    rows = max(1, BLOCK_PAIRS // n)
    for m in sorted({1, rows - 1, rows, rows + 1, 3 * rows + 5} - {0}):
        z = 1.2 * sample_disc_array(derive_substream(22, m), m)
        d = z[:, None] - roots
        dmin, s, r = pair_sums(z, roots, "dmin", "S", "R")
        s1, r1 = recip_sums(d)
        assert np.array_equal(dmin, np.abs(d).min(axis=1))
        assert np.array_equal(s, s1) and np.array_equal(r, r1)
        assert np.array_equal(log_abs_p(poly, z), log_modulus(d))
    # skipping the self-pairs, as the solver's root-pair pass does
    pts = roots[: 3 * rows + 5]
    d = pts[:, None] - roots
    d[np.arange(pts.size), np.arange(pts.size)] = np.inf
    dmin, s = pair_sums(pts, roots, "dmin", "S", skip=np.arange(pts.size))
    assert np.array_equal(dmin, np.abs(d).min(axis=1))
    assert np.array_equal(s, recip_sums(d)[0])


def test_blocked_log_abs_p_on_2d_grid_and_on_a_root():
    roots = sample_disc_array(derive_substream(23, 0), 37)
    poly = RootedPolynomial(roots)
    z = 1.3 * sample_disc_array(derive_substream(24, 0), 7 * 400).reshape(7, 400)
    z[3, 123] = roots[5]
    vals = log_abs_p(poly, z)
    assert vals.shape == z.shape and vals[3, 123] == -np.inf
    assert np.array_equal(vals, log_modulus(z[..., None] - roots))
    assert log_abs_p(poly, z[0, 0]) == log_modulus(z[0, 0] - roots)
