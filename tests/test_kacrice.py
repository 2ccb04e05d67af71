import math
import warnings

import numpy as np
import pytest

from lemlab.components import annulus_inner_radius, count_components
from lemlab.critical import find_critical_points
from lemlab.kacrice import (
    _event_batch,
    epsilon_count,
    estimate_p_on_and_mn,
    estimate_t0,
    sample_on_event,
)
from lemlab.polyeval import RootedPolynomial
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


def test_eps_count_validation():
    poly = RootedPolynomial([0.0, 0.5])
    with pytest.raises(ValueError):
        epsilon_count(poly, DISC_BOX, -1.0, 512)
    with pytest.raises(ValueError):
        epsilon_count(poly, DISC_BOX, 1e-3, 128)
    with pytest.raises(ValueError):
        epsilon_count(poly, (1.0, -1.0, -1.0, 1.0), 1e-3, 512)


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
        nr, nt = 1200, 2400
        p2 = m2 = 0.0
        for rr in (np.arange(nr) + 0.5) / nr:
            x2 = rr * np.exp(2j * np.pi * (np.arange(nt) + 0.5) / nt)
            diff0 = x0 - x2
            s = 1.0 / diff0 + s_t
            ev = (np.abs(s) < np.abs(diff0) * qo) & (np.abs(x0 + 1.0 / s) < 1.0)
            if ev.any():
                w = 1.0 / np.abs(diff0[ev] * s[ev]) ** 4
                cw = rr * (1.0 / nr) * (2.0 * np.pi / nt) / math.pi
                p2 += ev.sum() * cw
                m2 += w.sum() * cw
        if p2 > 0.02:  # need the event to be grid-resolvable
            assert m2 == pytest.approx(p2, rel=0.05)
            checked += 1
    assert checked == 3


def test_sample_on_event_structure():
    s = sample_on_event(6, 1.0, derive_substream(63, 0))
    assert s.poly_rest.n == 5
    assert (not s.in_event) or s.in_annulus
    assert abs(complex(s.x0)) < 1.0
    with pytest.raises(ValueError):
        sample_on_event(2, 1.0, derive_substream(63, 1))


def test_event_implies_annulus_and_inversion_constraint():
    b = _event_batch(6, 1.0, derive_substream(64, 0), 50_000)
    ev = b["in_event"]
    assert ev.any()
    assert b["in_annulus"][ev].all()
    assert (b["log_s"][ev] < b["log_q"][ev]).all()
    assert (np.abs(b["x0"][ev] + 1.0 / b["s"][ev]) < 1.0).all()


def test_event_rotation_invariance():
    # rotating all points by a common phase leaves every indicator alone
    b = _event_batch(6, 1.0, derive_substream(65, 0), 20_000)
    rot = np.exp(1j * 0.7)
    x0 = b["x0"] * rot
    rest = b["rest"] * rot
    diff = x0[:, None] - rest
    s = (1.0 / diff).sum(axis=1)
    log_q = np.log(np.abs(diff)).sum(axis=1)
    inner = annulus_inner_radius(6, 1.0)
    mod0 = np.abs(x0)
    ev = (mod0 > inner) & (mod0 < 1.0)
    ev &= np.log(np.abs(s)) < log_q
    ev &= np.abs(x0 + 1.0 / s) < 1.0
    assert np.array_equal(ev, b["in_event"])


def test_identity_small_run():
    est = estimate_p_on_and_mn(6, 1.0, 300_000, derive_substream(66, 0))
    assert est.m_n >= 0.0
    assert est.p_on <= 1.0
    z = abs(est.p_on - est.m_n) / est.diff_se
    assert z < 4.0
    # the annulus event bounds the full event
    b = _event_batch(6, 1.0, derive_substream(66, 1), 100_000)
    assert b["in_event"].sum() <= b["in_annulus"].sum()


def test_plain_estimator_also_exposed():
    est = estimate_p_on_and_mn(4, 1.0, 200_000, derive_substream(67, 0),
                               method="plain")
    assert est.m_n >= 0.0
    with pytest.raises(ValueError):
        estimate_p_on_and_mn(4, 1.0, 100, derive_substream(67, 1), method="x")


def test_sqrt_n_p_on_trend_toward_limit():
    # sqrt(n) P(O) creeps toward sqrt(2/pi) sigma(1); assert only that
    # n=400 sits closer than n=50
    from lemlab.analytic import limit_constant

    lim = limit_constant()
    dist = {}
    for n in (50, 400):
        est = estimate_p_on_and_mn(n, 1.0, 200_000, derive_substream(69, n),
                                   method="plain")
        dist[n] = abs(math.sqrt(n) * est.p_on - lim)
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
