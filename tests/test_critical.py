import sys
import threading
import warnings

import numpy as np
import pytest

from lemlab import critical, polyeval
from lemlab.components import INRADIUS_PROBES, count_components
from lemlab.critical import SEPARATION_TOL, CriticalSet, _validate, find_critical_points
from lemlab.harness import ExperimentConfig, run_trial
from lemlab.polyeval import RootedPolynomial, log_abs_p, pair_sums
from lemlab.rng import derive_substream, sample_disc_array

from util import coeffs_from_roots, polyder_coeffs, winding_zero_count


def test_two_roots_midpoint():
    poly = RootedPolynomial([0.2, -0.4])
    crit = find_critical_points(poly, stream=derive_substream(0, 0))
    assert crit.converged
    assert crit.points[0] == pytest.approx(-0.1 + 0.0j, abs=1e-12)
    assert crit.residuals[0] < 1e-12


def test_three_roots_quadratic_formula():
    # roots {0, 1, i}: P' = 3 z^2 - 2 (1+i) z + i
    poly = RootedPolynomial([0.0, 1.0, 1j])
    a, b, c = 3.0, -2.0 * (1 + 1j), 1j
    disc = np.sqrt(b * b - 4 * a * c)
    expected = sorted([(-b + disc) / (2 * a), (-b - disc) / (2 * a)],
                      key=lambda z: (z.real, z.imag))
    crit = find_critical_points(poly, stream=derive_substream(0, 0))
    assert crit.converged
    got = sorted(crit.points, key=lambda z: (z.real, z.imag))
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-10)


def test_gauss_lucas_at_n_100():
    stream = derive_substream(21, 0)
    poly = RootedPolynomial(sample_disc_array(stream, 100))
    crit = find_critical_points(poly, stream=stream)
    assert crit.converged
    assert len(crit) == 99
    assert np.abs(crit.points).max() <= 1.0 + 1e-9
    assert crit.residuals.max() < 1e-10


def test_completeness_against_winding_oracle():
    # solver finds exactly n-1 points, and the argument principle agrees
    # that P' has n-1 zeros in a box containing them all
    for seed in range(6):
        stream = derive_substream(22, seed)
        n = 3 + seed
        roots = sample_disc_array(stream, n)
        poly = RootedPolynomial(roots)
        crit = find_critical_points(poly, stream=stream)
        assert crit.converged and len(crit) == n - 1
        dc = polyder_coeffs(coeffs_from_roots(roots))
        wind = winding_zero_count(dc, (-1.02, 1.02, -1.02, 1.02))
        assert wind == n - 1


@pytest.mark.parametrize("n", [3, 12, 400])
def test_start_rule_paired_newton_or_nudge(n, monkeypatch):
    # with no sweep the returned points are the starts: iterate k starts at
    # the paired-root Newton point x_k - 1/S_rest(x_k) when that step is
    # below half of x_k's root gap, and otherwise at x_k nudged by
    # 1e-3 * gap at the angle of the k-th uniform of the stream
    roots = sample_disc_array(derive_substream(23, n), n)
    monkeypatch.setattr(critical, "MAX_SWEEPS", 0)
    starts = find_critical_points(RootedPolynomial(roots), stream=derive_substream(23, 1)).points
    angles = 2.0 * np.pi * derive_substream(23, 1).uniforms(n - 1)
    assert len(starts) == n - 1 and len(np.unique(starts)) == n - 1
    paired = 0
    for k in range(n - 1):
        rest = roots[k] - np.delete(roots, k)
        gap = np.abs(rest).min()
        step = 1.0 / pair_sums(roots[k:k + 1], np.delete(roots, k), "S")[0][0]
        if abs(step) < 0.5 * gap:
            assert starts[k] == pytest.approx(roots[k] - step, rel=0, abs=1e-12 * gap)
            paired += 1
        else:
            nudge = roots[k] + 1e-3 * gap * np.exp(1j * angles[k])
            assert starts[k] == pytest.approx(nudge, rel=0, abs=1e-12 * gap)
    assert paired == {3: 0, 12: 6, 400: 389}[n]


def test_solver_outputs_pinned_n400():
    # criterion 11's n = 400 substreams: the component counts recorded
    # before the paired-root start and the predicted stop, residuals at
    # the level perfbench compares them, and exactly one uniform per
    # iterate drawn, for its start angle
    n = 400
    expected = ("3,9,2,6,9,12,2,7,6,11,9,3,3,3,9,5,1,2,6,5,"
                "9,3,3,4,1,2,1,4,4,4,4,1,1,2,5,3,2,7,3,1")
    got = []
    for t in range(40):
        stream = derive_substream(4212, (n << 32) + t)
        poly = RootedPolynomial(sample_disc_array(stream, n))
        before = stream.counter
        crit = find_critical_points(poly, stream=stream)
        assert crit.converged and crit.residuals.max() < 1e-12
        assert stream.counter == before + n - 1
        got.append(count_components(poly, crit).components)
    assert ",".join(map(str, got)) == expected


def test_pairing_median_beats_root_spacing():
    n = 500
    stream = derive_substream(24, 0)
    poly = RootedPolynomial(sample_disc_array(stream, n))
    crit = find_critical_points(poly, stream=stream)
    dist = np.sort(crit.dmin)
    assert np.median(dist) < 1.0 / np.sqrt(n)


def test_pairing_two_roots_and_positivity():
    poly = RootedPolynomial([0.3, -0.3])
    crit = find_critical_points(poly, stream=derive_substream(0, 0))
    dist = np.sort(crit.dmin)
    assert dist[0] == pytest.approx(0.3, abs=1e-12)
    assert np.all(dist > 0)
    assert np.all(np.diff(dist) >= 0)


def test_pairing_tail_regression_n_1000():
    # regression value from a calibration run, not a theorem: the 95th
    # percentile of pairing distances sits well under 5 n^{-3/4}
    n = 1000
    stream = derive_substream(25, 0)
    poly = RootedPolynomial(sample_disc_array(stream, n))
    crit = find_critical_points(poly, stream=stream)
    dist = np.sort(crit.dmin)
    assert np.quantile(dist, 0.95) < 5.0 * n ** (-0.75)


def test_rotation_equivariance():
    stream = derive_substream(26, 0)
    roots = sample_disc_array(stream, 40)
    theta = 2.0 * np.pi * 0.23
    rot = np.exp(1j * theta)
    a = find_critical_points(RootedPolynomial(roots), stream=derive_substream(26, 1))
    b = find_critical_points(RootedPolynomial(roots * rot), stream=derive_substream(26, 2))
    assert a.converged and b.converged
    pa = np.sort_complex(a.points * rot)
    pb = np.sort_complex(b.points)
    assert np.abs(pa - pb).max() < 1e-9


def test_residual_certificate_flags_spurious_points():
    # a point snapped to a root is not a zero of S: the scale-free
    # residual |S| * min-root-distance stays O(1) there
    stream = derive_substream(27, 0)
    roots = sample_disc_array(stream, 30)
    probe = roots[0] + 1e-8
    res = abs(pair_sums(np.array([probe]), roots, "S")[0][0]) * np.abs(probe - roots).min()
    assert res > 0.5


def test_nonconvergence_reports_partial_state(monkeypatch):
    stream = derive_substream(28, 0)
    poly = RootedPolynomial(sample_disc_array(stream, 200))
    monkeypatch.setattr(critical, "MAX_SWEEPS", 2)
    crit = find_critical_points(poly, stream=stream)
    assert not crit.converged
    assert len(crit) == 199
    assert crit.iterations <= 2


def test_early_stop_short_of_the_certificate_sweeps_on():
    # at n = 800 this trial's predicted stop left iterate 182 at residual
    # 2.5e-10 after 10 sweeps; a second round of sweeps certifies it
    stream = derive_substream(3145754, 21)
    poly = RootedPolynomial(sample_disc_array(stream, 800))
    crit = find_critical_points(poly, stream=stream)
    assert crit.converged
    assert crit.residuals.max() < 1e-12
    assert crit.iterations <= critical.MAX_SWEEPS


def test_requires_two_roots():
    # n = 1 takes the general path: no warning, no uniform drawn
    stream = derive_substream(0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empty = find_critical_points(RootedPolynomial([0.1]), stream=stream)
    assert empty.converged and len(empty) == 0 and empty.iterations == 0
    assert stream.counter == 0


def test_validate_separation_is_strict():
    def validated(gap):
        crit = CriticalSet(points=np.array([0.3j, 0.0, gap, -0.4]), dmin=np.ones(4),
                           log_values=np.ones(4), residuals=np.zeros(4), iterations=1,
                           converged=True)
        _validate(crit)
        return crit.converged

    assert validated(SEPARATION_TOL)
    assert not validated(np.nextafter(SEPARATION_TOL, 0.0))


def test_concurrent_solves_match_serial_bitwise():
    # the row-block scratch is per thread: four threads (more than the
    # cores) solving and evaluating different degrees at once, with a
    # short switch interval, get the serial bits
    sizes = (30, 120, 260, 700)
    grid = 1.1 * np.exp(2j * np.pi * np.arange(900) / 900.0)

    def work(n):
        poly = RootedPolynomial(sample_disc_array(derive_substream(31, n), n))
        crit = find_critical_points(poly, stream=derive_substream(32, n))
        return crit.points, crit.residuals, crit.iterations, log_abs_p(poly, grid)

    serial = {n: work(n) for n in sizes}
    got = {n: [] for n in sizes}
    start = threading.Barrier(len(sizes))

    def run(n):
        start.wait(timeout=30)
        for _ in range(3):
            got[n].append(work(n))

    threads = [threading.Thread(target=run, args=(n,)) for n in sizes]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for n in sizes:
        assert len(got[n]) == 3
        for points, residuals, sweeps, vals in got[n]:
            assert np.array_equal(points, serial[n][0])
            assert np.array_equal(residuals, serial[n][1])
            assert sweeps == serial[n][2]
            assert np.array_equal(vals, serial[n][3])


def test_pairs_counts_every_root_sum_pass(monkeypatch):
    # pairs is the sum of rows x roots over the solve's pair_sums passes
    passes = []

    def spy(z, x, *names, **kw):
        passes.append(z.size * x.shape[-1])
        return pair_sums(z, x, *names, **kw)

    monkeypatch.setattr(critical, "pair_sums", spy)
    for n in (1, 2, 12, 150):
        passes.clear()
        poly = RootedPolynomial(sample_disc_array(derive_substream(33, n), n))
        crit = find_critical_points(poly, stream=derive_substream(34, n))
        assert crit.converged and crit.pairs == sum(passes)
        assert len(passes) == 2 + 2 * crit.iterations

    # a whole trial: after the solve, the inradius probe and the area
    # Monte Carlo are the only passes; the count reads the solver's values
    monkeypatch.setattr(polyeval, "pair_sums", spy)
    cfg = ExperimentConfig(area_samples=256)
    for n in (12, 150):
        passes.clear()
        cfg.n = n
        _, _, crit = run_trial(cfg, 0)
        solve = len(passes) - 2
        assert solve == 2 + 2 * crit.iterations and sum(passes[:solve]) == crit.pairs
        assert passes[solve:] == [INRADIUS_PROBES * n, cfg.area_samples * n]

    # the last pass's values are those of a pass of their own, bit for
    # bit, in one row block (n = 2, 12) and in three (300) or twenty (800)
    for n in (2, 12, 300, 800):
        poly = RootedPolynomial(sample_disc_array(derive_substream(35, n), n))
        crit = find_critical_points(poly, stream=derive_substream(36, n))
        assert crit.converged
        assert np.array_equal(crit.log_values, log_abs_p(poly, crit.points))
        assert np.array_equal(crit.dmin, pair_sums(crit.points, poly.roots, "dmin")[0])


def test_iterates_started_on_roots_leave_them(monkeypatch):
    # an iterate on a root has d = 0 there, so its S and R are not
    # finite; the sweep's bounded fallback step moves it off, and the
    # solve finds the same points as from the usual starts
    n = 12
    poly = RootedPolynomial(sample_disc_array(derive_substream(23, n), n))
    usual = find_critical_points(poly, stream=derive_substream(23, 1))
    monkeypatch.setattr(critical, "_nudge", lambda roots, gaps, idx, stream: roots[idx])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        crit = find_critical_points(poly, stream=derive_substream(23, 1))
    assert crit.converged and usual.converged
    assert np.abs(np.sort_complex(crit.points) - np.sort_complex(usual.points)).max() < 1e-9


@pytest.mark.parametrize("gap", [2e-15, 1e-14, 1e-10])
def test_near_coincident_roots_solve_without_error(gap):
    # a root pair `gap` apart among 22 roots; at gap = 2e-15 and 1e-14
    # iterate 20's start nudge, 1e-3 * gap, is below half an ulp of a, so
    # it starts on root a itself and only the bounded fallback step moves
    # it.  Every solve returns n - 1 points, draws one uniform per iterate
    # and warns of nothing.  Convergence is not asserted: at such gaps
    # the residual test can reject a correct point
    a = 0.3 + 0.2j
    roots = np.concatenate([sample_disc_array(derive_substream(37, 0), 20), [a, a + gap]])
    stream = derive_substream(37, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        crit = find_critical_points(RootedPolynomial(roots), stream=stream)
    assert len(crit) == 21 and stream.counter == 21
