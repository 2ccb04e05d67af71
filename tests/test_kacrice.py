import io
import math
import warnings

import numpy as np
import pytest

from lemlab.cli import main
from lemlab.components import annulus_inner_radius, count_components
from lemlab.critical import find_critical_points
from lemlab import kacrice
from lemlab.kacrice import (
    _draw_x0_and_rest,
    _in_event,
    epsilon_count,
    estimate_p_on,
    estimate_p_on_and_mn,
    estimate_t0,
)
from lemlab.polyeval import RootedPolynomial, pair_sums
from lemlab.rng import derive_substream, sample_disc_array

DISC_BOX = (-1.02, 1.02, -1.02, 1.02)


def test_eps_count_linear_derivative():
    # roots {0, 1}: P' = 2z - 1, a single zero at 1/2
    poly = RootedPolynomial([0.0, 1.0])
    val = epsilon_count(poly, (-1.0, 2.0, -1.0, 1.0), 1e-3, 512)
    assert abs(val - 1.0) < 0.05


def test_eps_count_matches_solver_count():
    for seed in range(3):
        stream = derive_substream(60, seed)
        poly = RootedPolynomial(sample_disc_array(stream, 6))
        val = epsilon_count(poly, DISC_BOX, 1e-3, 512)
        assert abs(val - 5.0) < 0.05


def test_eps_count_never_exceeds_degree():
    # sup over eps of the normalized integral is at most deg P' = n - 1
    for seed in range(2):
        stream = derive_substream(61, seed)
        n = 5 + seed
        poly = RootedPolynomial(sample_disc_array(stream, n))
        for eps in (1e-1, 1e-2, 1e-3):
            val = epsilon_count(poly, DISC_BOX, eps, 512)
            assert val <= n - 1 + 0.05


def test_eps_count_validation(monkeypatch):
    # every rejection comes before any evaluation: unchecked, a NaN eps
    # returns 0.0 after subsampling every base cell, and subsample=0
    # raises ZeroDivisionError only once some cell settles
    poly = RootedPolynomial([0.0, 0.5])

    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated before validating")

    monkeypatch.setattr(kacrice, "pair_sums", no_evaluation)
    for eps, grid, region, subsample in (
        (-1.0, 512, DISC_BOX, 32), (1e-3, 128, DISC_BOX, 32),
        (1e-3, 512, (1.0, -1.0, -1.0, 1.0), 32), (math.nan, 512, DISC_BOX, 32),
        (math.inf, 512, DISC_BOX, 32), (1e-3, 512, DISC_BOX, 0),
        (1e-3, 512, DISC_BOX, -1),
    ):
        with pytest.raises(ValueError):
            epsilon_count(poly, region, eps, grid, subsample=subsample)


def _exclusion_cases():
    """(poly, region, eps, grid): 22 cases across the eps range and grids."""
    yield RootedPolynomial([0.0, 1.0]), (-1.0, 2.0, -1.0, 1.0), 1e-3, 512
    for seed in range(5):
        poly = RootedPolynomial(sample_disc_array(derive_substream(4206, seed), 6))
        for eps in (1e-1, 1e-2, 1e-3):
            yield poly, DISC_BOX, eps, 512
    for n in (8, 12):
        for seed in range(2):
            poly = RootedPolynomial(sample_disc_array(derive_substream(62, seed), n))
            yield poly, DISC_BOX, 1e-3, 512
    yield RootedPolynomial(sample_disc_array(derive_substream(62, 0), 6)), DISC_BOX, 1e-3, 300
    # a cluster seen from outside: |S|^2 far exceeds sum |z - x|^-2, so
    # log|P| falls across a block by more than the bound on S gives back
    cluster = RootedPolynomial(0.1 * sample_disc_array(derive_substream(63, 0), 12))
    yield cluster, DISC_BOX, 1e-2, 512


def test_excluded_cells_are_certainly_out():
    # every base cell that block exclusion skips fails level 0's own
    # "certainly out" test evaluated at its midpoint
    skipped = cells = 0
    for poly, region, eps, grid in _exclusion_cases():
        xmin, xmax, ymin, ymax = region
        hx, hy = (xmax - xmin) / grid, (ymax - ymin) / grid
        g = np.arange(grid)
        x, y = np.meshgrid(xmin + (g + 0.5) * hx, ymin + (g + 0.5) * hy, indexing="ij")
        log_dp, log_ddp = kacrice._log_moduli(poly, x.ravel(), y.ravel())
        lm = log_ddp + math.log(4.0 * (0.5 * math.hypot(hx, hy)))
        out = log_dp > np.logaddexp(math.log(eps), lm)
        skip = np.ones(grid * grid, bool)
        skip[kacrice._kept_cells(poly, region, grid, math.log(eps))] = False
        assert out[skip].all(), (poly.n, eps, grid)
        skipped += int(skip.sum())
        cells += skip.size
    assert skipped > 0.5 * cells


@pytest.mark.parametrize("stream, n, region, eps, grid, subsample, pinned", [
    # perfbench's `estimators` round 0: substream 2 of batch_master_seed(0, 0) = 0
    ((0, 2), 8, DISC_BOX, 1e-3, 512, 8, 6.995877572659544),
    (None, 2, (-1.0, 2.0, -1.0, 1.0), 1e-3, 512, 32, 0.9994043072658636),
    ((4206, 0), 6, DISC_BOX, 1e-1, 512, 8, 4.9995520730535645),
    ((4206, 0), 6, DISC_BOX, 1e-2, 512, 8, 4.998994491863391),
    ((4206, 0), 6, DISC_BOX, 1e-3, 512, 32, 4.999267611328346),
    ((62, 0), 6, DISC_BOX, 1e-3, 300, 8, 5.00349847933039),
    ((62, 1), 12, DISC_BOX, 1e-3, 512, 8, 10.995963111366795),
    ((62, 2), 3, DISC_BOX, 1e-2, 512, 8, 2.002163556166369),
], ids=["bench-round0", "roots01", "n6-eps1e-1", "n6-eps1e-2", "n6-eps1e-3",
        "grid300", "n12", "n3"])
def test_eps_count_pinned(stream, n, region, eps, grid, subsample, pinned):
    # recorded from the full-grid quadrature; block exclusion keeps every bit
    roots = [0.0, 1.0] if stream is None else sample_disc_array(derive_substream(*stream), n)
    value = epsilon_count(RootedPolynomial(roots), region, eps, grid, subsample=subsample)
    assert value == pytest.approx(pinned, rel=1e-12)


def _event_empty(x0, s_t, qo):
    """True when no X2 in the unit disc can meet the quadrature event.

    With w = x0 - X2 and t = |w| < 1 + |x0|, the event needs |s| < t qo
    and |x0 + 1/s| < 1, so |s| > 1/(1 + |x0|) and |x0 s + 1| < |s|.
    Hence t > 1/((1 + |x0|) qo), and both |s_t + 1/w| < t qo and
    |s_t + 1/x0 + 1/w| < t qo / |x0|.  Each of the last two has the form
    |a + 1/w| < t q, so ||a| - 1/t| < t q: t lies above the positive root
    of q t^2 + |a| t - 1 and outside the roots of q t^2 - |a| t + 1.
    """
    segs = [(1.0 / ((1.0 + abs(x0)) * qo), 1.0 + abs(x0))]
    for a, q in ((abs(s_t), qo), (abs(s_t + 1.0 / x0), qo / abs(x0))):
        lo = (math.sqrt(a * a + 4.0 * q) - a) / (2.0 * q)
        d = a * a - 4.0 * q
        g1, g2 = ((a - math.sqrt(d)) / (2.0 * q), (a + math.sqrt(d)) / (2.0 * q)) \
            if d > 0 else (math.inf, math.inf)
        cut = []
        for u, v in segs:
            u = max(u, lo)
            cut += [(u, min(v, g1)), (max(u, g2), v)]
        segs = [(u, v) for u, v in cut if u < v]
    return not segs


def test_conditional_identity_by_quadrature():
    # Freeze X0 and X3..Xn; integrate over X2 on a fine polar grid: the
    # X2-average of |(X0-X2) S|^{-4} over the event must equal the
    # X2-probability of the event.  This checks the event and weight
    # definitions deterministically.
    n = 6
    kappa = 1.0
    inner = annulus_inner_radius(n, kappa)
    rng = derive_substream(62, 0)
    checked = 0
    attempts = 0
    while checked < 3 and attempts < 200:
        attempts += 1
        x0 = sample_disc_array(rng, 1)[0]
        others = sample_disc_array(rng, n - 2)
        if not inner < abs(x0) < 1:
            continue
        s_t = np.sum(1.0 / (x0 - others))
        qo = np.prod(np.abs(x0 - others))
        if _event_empty(x0, s_t, qo):
            continue
        # midpoint rule on an nr x nt polar grid, 100 radii at a time
        nr, nt = 1200, 2400
        unit = np.exp(2j * np.pi * (np.arange(nt) + 0.5) / nt)
        p2 = m2 = 0.0
        for lo in range(0, nr, 100):
            rr = (np.arange(lo, lo + 100) + 0.5) / nr
            diff0 = x0 - rr[:, None] * unit
            s = 1.0 / diff0 + s_t
            ev = (np.abs(s) < np.abs(diff0) * qo) & (np.abs(x0 + 1.0 / s) < 1.0)
            cw = np.broadcast_to(rr[:, None] * (1.0 / nr) * (2.0 * np.pi / nt) / math.pi,
                                 ev.shape)[ev]
            w = 1.0 / np.abs(diff0[ev] * s[ev]) ** 4
            p2 += cw.sum()
            m2 += (w * cw).sum()
        if p2 > 0.02:  # need the event to be grid-resolvable
            assert m2 == pytest.approx(p2, rel=0.05)
            checked += 1
    assert checked == 3


def _event_sample(stream, count):
    """`count` draws of X_0 and 5 roots with the event O at n = 6, kappa = 1."""
    x0, degenerate, s, log_q = _draw_x0_and_rest(stream, count, 5, "log")
    in_event, log_s = _in_event(6, 1.0, x0, s, log_q)
    mod0 = np.abs(x0)
    in_annulus = (mod0 > annulus_inner_radius(6, 1.0)) & (mod0 < 1.0)
    return x0, degenerate, s, log_q, log_s, in_event, in_annulus


def test_event_implies_annulus_and_inversion_constraint():
    x0, _, s, log_q, log_s, ev, in_annulus = _event_sample(derive_substream(64, 0), 50_000)
    assert ev.any()
    assert in_annulus[ev].all()
    assert (log_s[ev] < log_q[ev]).all()
    assert (np.abs(x0[ev] + 1.0 / s[ev]) < 1.0).all()


def test_event_rotation_invariance():
    # rotating all points by a common phase leaves every indicator alone;
    # with no redraw the roots are the stream's next 5 points per draw
    x0, degenerate, _, _, _, in_event, _ = _event_sample(derive_substream(65, 0), 20_000)
    assert degenerate == 0
    replay = derive_substream(65, 0)
    assert np.array_equal(sample_disc_array(replay, 20_000), x0)
    rest = sample_disc_array(replay, 5 * 20_000).reshape(20_000, 5)
    rot = np.exp(1j * 0.7)
    x0 = x0 * rot
    rest = rest * rot
    diff = x0[:, None] - rest
    s = (1.0 / diff).sum(axis=1)
    log_q = np.log(np.abs(diff)).sum(axis=1)
    inner = annulus_inner_radius(6, 1.0)
    mod0 = np.abs(x0)
    ev = (mod0 > inner) & (mod0 < 1.0)
    ev &= np.log(np.abs(s)) < log_q
    ev &= np.abs(x0 + 1.0 / s) < 1.0
    assert np.array_equal(ev, in_event)


def test_identity_small_run():
    est = estimate_p_on_and_mn(6, 1.0, 300_000, derive_substream(66, 0))
    assert est.m_n >= 0.0
    assert est.p_on <= 1.0
    z = abs(est.p_on - est.m_n) / est.diff_se
    assert z < 4.0
    # the annulus event bounds the full event
    *_, in_event, in_annulus = _event_sample(derive_substream(66, 1), 100_000)
    assert in_event.sum() <= in_annulus.sum()


def test_event_estimators_request_only_the_sums_they_read(monkeypatch):
    requested = []

    def spy(z, x, *names, **kwargs):
        requested.append(names)
        return pair_sums(z, x, *names, **kwargs)

    monkeypatch.setattr(kacrice, "pair_sums", spy)
    estimate_p_on(10, 2.0, 500, derive_substream(70, 0))
    assert {tuple(sorted(names)) for names in requested} == {("S", "log")}
    requested.clear()
    estimate_t0(10, 2.0, 500, derive_substream(70, 1))
    assert {tuple(sorted(names)) for names in requested} == {("R", "S", "log")}


def test_event_estimators_need_three_roots():
    for estimate in (estimate_p_on, estimate_p_on_and_mn, estimate_t0):
        with pytest.raises(ValueError):
            estimate(2, 1.0, 100, derive_substream(67, 1))


def test_event_estimators_reject_nan_kappa():
    for estimate in (estimate_p_on, estimate_p_on_and_mn, estimate_t0):
        with pytest.raises(ValueError):
            estimate(10, math.nan, 100, derive_substream(67, 2))


def test_sqrt_n_p_on_trend_toward_limit():
    # sqrt(n) P(O) creeps toward sqrt(2/pi) sigma(1); assert only that
    # n=400 sits closer than n=50
    from lemlab.analytic import limit_constant

    lim = limit_constant()
    dist = {}
    for n in (50, 400):
        p_on, _, _ = estimate_p_on(n, 1.0, 200_000, derive_substream(69, n))
        dist[n] = abs(math.sqrt(n) * p_on - lim)
    assert dist[400] < dist[50]


def test_t0_nonnegative_and_consistent_smoke():
    t0 = estimate_t0(6, 2.0, 300_000, derive_substream(68, 0))
    assert t0.mean >= 0.0
    assert t0.mom >= 0.0
    # smoke-scale agreement with direct counting (full-scale version is
    # an acceptance criterion)
    counts = []
    for k in range(4000):
        st = derive_substream(68, 10_000 + k)
        poly = RootedPolynomial(sample_disc_array(st, 6))
        crit = find_critical_points(poly, stream=st)
        counts.append(count_components(poly, crit, kappa=2.0).components)
    counts = np.asarray(counts, dtype=float)
    se_c = counts.std(ddof=1) / math.sqrt(counts.size)
    z = abs((1.0 + t0.mean) - counts.mean()) / math.sqrt(t0.se**2 + se_c**2)
    assert z < 4.0


def test_t0_fewer_trials_than_blocks():
    # 10 trials and 32 blocks: each block holds one value, none is empty
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        t0 = estimate_t0(100, 2.0, 10, derive_substream(1, 0))
    assert math.isfinite(t0.mom_se)
    assert math.isfinite(t0.mom) and t0.mom >= 0.0


@pytest.mark.parametrize("args, pinned", [
    (["--mode", "on-event", "--n", "50", "--trials", "6000"],
     {"p_on": 0.007333333333333333, "m_n": 0.014817217262483424}),
    (["--mode", "t0", "--n", "100", "--trials", "3000"],
     {"t0_mean": 0.01047166362802835, "t0_median_of_means": 0.010689210822885957}),
    (["--mode", "epsint", "--n", "8", "--grid", "512"],
     {"epsint": 7.000109657218854}),
], ids=["on-event", "t0", "epsint"])
def test_cli_outputs_pinned(args, pinned):
    # fixed-seed `lemlab kacrice` outputs, at the benchmark's 1e-9 tolerance
    buf = io.StringIO()
    assert main(["kacrice", "--kappa", "2", "--seed", "1"] + args, out=buf) == 0
    rows = dict(line.split(",")[:2] for line in buf.getvalue().splitlines()[1:])
    for name, value in pinned.items():
        assert float(rows[name]) == pytest.approx(value, rel=1e-9)


def test_coincident_or_underflowing_draws_are_redrawn(monkeypatch):
    # X_0 on one of its roots (d = 0), or 1e-160 from it (q underflows),
    # has a non-finite S; both draws are redrawn whole, the third is kept
    crafted = [np.array([0.5, 0.0, 0.25], np.complex128),
               np.array([0.5, 0.1, 1e-160, 0.3j, 0.6, -0.2], np.complex128)]

    def draw(stream, count):
        return crafted.pop(0) if crafted else sample_disc_array(stream, count)

    monkeypatch.setattr(kacrice, "sample_disc_array", draw)
    x0, degenerate, s, log_q = _draw_x0_and_rest(derive_substream(68, 0), 3, 2, "log")
    assert degenerate == 2
    assert np.isfinite(s).all() and np.isfinite(log_q).all()
    kept = pair_sums(x0[2:], np.array([[0.6, -0.2]], np.complex128), "S", "log")
    assert x0[2] == 0.25 and s[2] == kept[0][0] and log_q[2] == kept[1][0]
