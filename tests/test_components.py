import math

import numpy as np
import pytest

from lemlab import critical
from lemlab.components import (
    annulus_inner_radius,
    area_outside_mc,
    count_components,
    inradius_holds,
)
from lemlab.critical import find_critical_points
from lemlab.polyeval import RootedPolynomial
from lemlab.raster import mask_component_stats, rasterize
from lemlab.rng import derive_substream, sample_disc_array


def _solved(seed, n):
    stream = derive_substream(seed, 0)
    poly = RootedPolynomial(sample_disc_array(stream, n))
    crit = find_critical_points(poly, stream=stream)
    assert crit.converged
    return poly, crit


def test_single_root_is_one_component():
    poly = RootedPolynomial([0.4 - 0.2j])
    crit = find_critical_points(poly, stream=derive_substream(0, 0))
    rep = count_components(poly, crit)
    assert rep.components == 1
    assert rep.n_crit_outside == 0
    # no critical points: the empty arrays give the annulus count too
    assert rep.components_annulus == 1
    assert rep.crit_log_values.shape == (0,) and rep.n_ambiguous == 0


def test_two_roots_always_one_component():
    # |P(midpoint)| = |x1 - x2|^2 / 4 < 1 for roots in the disc
    for seed in range(50):
        poly, crit = _solved(100 + seed, 2)
        rep = count_components(poly, crit)
        assert rep.components == 1


def test_identity_components_equals_one_plus_outside():
    for seed in range(20):
        poly, crit = _solved(200 + seed, 9)
        rep = count_components(poly, crit)
        assert rep.components == 1 + rep.n_crit_outside
        assert rep.components_annulus <= rep.components
        assert 1 <= rep.components <= poly.n


def test_matches_flood_fill_oracle_small():
    agree = 0
    trials = 0
    for n in range(3, 13):
        for seed in range(8):
            poly, crit = _solved(1000 * n + seed, n)
            rep = count_components(poly, crit)
            grid = rasterize(poly, 1024, 2.05)
            cnt, _, _ = mask_component_stats(grid.inside_mask)
            trials += 1
            agree += cnt == rep.components
    assert agree >= trials - 1  # resolution-limit mismatches are rare


def test_annulus_covering_disc_equals_full_count():
    poly, crit = _solved(300, 6)
    kappa = 3.0  # kappa sqrt(log 6 / 6) > 1: annulus covers the disc
    assert annulus_inner_radius(6, kappa) < 0
    assert count_components(poly, crit, kappa).components_annulus == count_components(poly, crit).components


def test_tiny_kappa_counts_nothing():
    poly, crit = _solved(301, 8)
    assert count_components(poly, crit, 1e-9).components_annulus == 1


def test_nan_or_nonpositive_kappa_rejected():
    poly, crit = _solved(303, 8)
    for kappa in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            annulus_inner_radius(100, kappa)
        with pytest.raises(ValueError):
            count_components(poly, crit, kappa)
        with pytest.raises(ValueError):
            inradius_holds(poly, kappa)


def test_ambiguity_flagging_on_exact_tie():
    # roots {1, -1}: the critical point is 0 and |P(0)| = 1 exactly
    poly = RootedPolynomial([1.0, -1.0])
    crit = find_critical_points(poly, stream=derive_substream(0, 0))
    rep = count_components(poly, crit)
    assert rep.n_ambiguous == 1
    assert rep.components == 1  # strict comparison at 0 on the log scale


def test_rejects_unconverged_critical_set(monkeypatch):
    stream = derive_substream(302, 0)
    poly = RootedPolynomial(sample_disc_array(stream, 150))
    monkeypatch.setattr(critical, "MAX_SWEEPS", 1)
    crit = find_critical_points(poly, stream=stream)
    assert not crit.converged
    with pytest.raises(ValueError):
        count_components(poly, crit)


def test_inradius_monotone_in_kappa():
    for seed in range(20):
        stream = derive_substream(400 + seed, 0)
        poly = RootedPolynomial(sample_disc_array(stream, 200))
        k2, k1 = 2.0, 3.0  # larger kappa probes a smaller circle
        if inradius_holds(poly, k2):
            assert inradius_holds(poly, k1)


def test_inradius_trivial_small_circle():
    # single root at 0, probing radius ~0.5: log|z| < 0 on that circle
    poly = RootedPolynomial([0.0, 1e-6 + 1e-6j])
    kappa = 0.5 / math.sqrt(math.log(2) / 2)
    assert abs(annulus_inner_radius(2, kappa) - 0.5) < 1e-12
    assert inradius_holds(poly, kappa)


def test_inradius_rejects_empty_circle():
    poly = RootedPolynomial([0.0, 0.5])
    with pytest.raises(ValueError):
        inradius_holds(poly, 50.0)


def test_area_outside_zero_for_centered_root():
    poly = RootedPolynomial([0.0])
    assert area_outside_mc(poly, 5000, derive_substream(500, 0)) == 0.0


def test_area_outside_bounded_by_disc_area():
    for seed in range(10):
        stream = derive_substream(600 + seed, 0)
        poly = RootedPolynomial(sample_disc_array(stream, 50))
        est = area_outside_mc(poly, 2000, stream)
        assert 0.0 <= est <= math.pi


def test_rotation_invariance_exact_per_trial():
    # rotating the same underlying roots rotates the lemniscate: counting
    # is unchanged trial by trial
    theta = 1.234
    rot = np.exp(1j * theta)
    for seed in range(10):
        stream = derive_substream(700 + seed, 0)
        roots = sample_disc_array(stream, 12)
        a = count_components(*_solved_pair(roots, seed)).components
        b = count_components(*_solved_pair(roots * rot, seed)).components
        assert a == b


def _solved_pair(roots, seed):
    poly = RootedPolynomial(roots)
    crit = find_critical_points(poly, stream=derive_substream(701, seed))
    assert crit.converged
    return poly, crit
