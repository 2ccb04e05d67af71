import math

import numpy as np
import pytest

from lemlab.polyeval import BLOCK_PAIRS, RootedPolynomial, log_abs_p, pair_sums
from lemlab.rng import derive_substream, sample_disc_array

from util import coeffs_from_roots, disc_points, polyder_coeffs, polyval_coeffs


def sums(roots, z, skip=()):
    """(S, R) at the point z over the roots not in `skip`, from the kernel."""
    (s,), (r,) = pair_sums(np.array([z], np.complex128), np.delete(roots, list(skip)), "S", "R")
    return s, r


def reference_sums(d, skipped=False):
    """dmin, S, R and log|P| over the last axis of `d`, whole, from q = |d|^2.

    q is inf where the mask `skipped` is set.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(skipped, np.inf, d.real**2 + d.imag**2)
        t = d * (1.0 / q)
        return (np.sqrt(q.min(axis=-1)), np.conj(t.sum(axis=-1)),
                np.conj((t * t).sum(axis=-1)), 0.5 * np.log(q).sum(axis=-1))


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
        ref = reference_sums(z[:, None] - roots)
        assert all(map(np.array_equal, pair_sums(z, roots, "dmin", "S", "R", "log"), ref))
        assert np.array_equal(log_abs_p(poly, z), ref[3])
        # one row of roots per point
        per_point = roots * np.exp(1j * np.arange(m))[:, None]
        ref = reference_sums(z[:, None] - per_point)
        assert all(map(np.array_equal, pair_sums(z, per_point, "R", "dmin", "S"),
                       (ref[2], ref[0], ref[1])))
    # skipping the self-pairs, as the solver's root-pair pass does: the
    # skipped pair has q = inf
    pts = roots[: 3 * rows + 5]
    dmin, s = pair_sums(pts, roots, "dmin", "S", skip=np.arange(pts.size))
    ref = reference_sums(pts[:, None] - roots, np.eye(pts.size, n, dtype=bool))
    assert np.array_equal(dmin, ref[0]) and np.array_equal(s, ref[1])
    assert np.isfinite(s).all()


@pytest.mark.parametrize("n", [12, 300])
def test_skipped_pair_adds_zero_to_the_log_sum(n):
    # with the self-pairs skipped, "log" is log|Q_k(x_k)| for
    # Q_k = P / (z - x_k), in one row block (n = 12) and in three (300),
    # and asking for it moves no bit of dmin, S or R
    x = sample_disc_array(derive_substream(28, n), n)
    skip = np.arange(n)
    dmin, s, r, log = pair_sums(x, x, "dmin", "S", "R", "log", skip=skip)
    ref = np.array([log_q(x, x[k], k) for k in range(n)])
    assert np.abs(log - ref).max() <= 1e-12
    assert all(map(np.array_equal, pair_sums(x, x, "dmin", "S", "R", skip=skip), (dmin, s, r)))


def test_blocked_log_abs_p_on_2d_grid_and_on_a_root():
    roots = sample_disc_array(derive_substream(23, 0), 37)
    poly = RootedPolynomial(roots)
    z = 1.3 * sample_disc_array(derive_substream(24, 0), 7 * 400).reshape(7, 400)
    z[3, 123] = roots[5]
    vals = log_abs_p(poly, z)
    assert vals.shape == z.shape and vals[3, 123] == -np.inf
    assert np.array_equal(vals, reference_sums(z[..., None] - roots)[3])
    assert log_abs_p(poly, z[0, 0]) == reference_sums(z[0, 0] - roots)[3]


def test_sums_agree_with_complex_division():
    # 1/d as conj(d)/|d|^2 against numpy's complex division (Smith's
    # algorithm), within 4 eps of the sum of the moduli of the terms, on
    # random points and on points 1e-12 from a root
    eps = np.finfo(float).eps
    for n in (5, 100, 800):
        roots = sample_disc_array(derive_substream(25, n), n)
        near = roots[:50] + 1e-12 * np.exp(2j * np.pi * np.arange(min(n, 50)) / 50)
        z = np.concatenate([1.3 * sample_disc_array(derive_substream(26, n), 200), near])
        inv = 1.0 / (z[:, None] - roots)
        s, r = pair_sums(z, roots, "S", "R")
        assert np.all(np.abs(s - inv.sum(axis=1)) <= 4 * eps * np.abs(inv).sum(axis=1))
        assert np.all(np.abs(r - (inv * inv).sum(axis=1))
                      <= 4 * eps * (np.abs(inv) ** 2).sum(axis=1))


def test_sums_against_extended_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    eps = np.finfo(float).eps
    roots = sample_disc_array(derive_substream(27, 0), 60)
    z = np.array([0.3 - 0.2j, 1.1j, -0.95 + 0.1j, roots[7] + 1e-12j])
    s, r = pair_sums(z, roots, "S", "R")
    for zi, si, ri in zip(z, s, r):
        terms = [1 / (mpmath.mpc(zi) - mpmath.mpc(x)) for x in roots]
        exact_s, exact_r = mpmath.fsum(terms), mpmath.fsum(t * t for t in terms)
        scale = float(mpmath.fsum(abs(t) for t in terms))
        assert abs(complex(exact_s) - si) <= 4 * eps * scale
        assert abs(complex(exact_r) - ri) <= 4 * eps * scale**2


def test_coincident_or_underflowing_difference_gives_nonfinite_sums():
    # q = |d|^2 is 0 or subnormal below about 1e-154, so 1/q is inf
    roots = np.array([0.0, 0.5 + 0.25j, -0.3 + 0.1j])
    for gap in (0.0, 1e-160, 1e-155, 1e-155j):
        dmin, s, r = pair_sums(np.array([gap], np.complex128), roots, "dmin", "S", "R")
        assert not np.isfinite(s[0]) and not np.isfinite(r[0])
        assert dmin[0] < 1e-154
    (s,) = pair_sums(np.array([1e-150j]), roots, "S")
    assert s[0] == pytest.approx(-1e150j, rel=1e-15)
