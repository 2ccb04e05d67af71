import hashlib

import numpy as np
import pytest
from scipy import ndimage

from lemlab.components import count_components
from lemlab.critical import find_critical_points
from lemlab.polyeval import RootedPolynomial
from lemlab.raster import GridMemoryError, mask_component_stats, rasterize, write_ppm
from lemlab.rng import derive_substream, sample_disc_array

CROSS = [[0, 1, 0], [1, 1, 1], [0, 1, 0]]


def test_single_root_mask_is_unit_disc():
    poly = RootedPolynomial([0.0])
    grid = rasterize(poly, 512, 1.25)
    xs = -1.25 + (np.arange(512) + 0.5) * (2.5 / 512)
    ys = 1.25 - (np.arange(512) + 0.5) * (2.5 / 512)
    rad = np.hypot(xs[None, :], ys[:, None])
    px = grid.pixel_size()
    interior = rad < 1.0 - px
    exterior = rad > 1.0 + px
    assert grid.inside_mask[interior].all()
    assert not grid.inside_mask[exterior].any()
    area = grid.inside_mask.sum() * px * px
    assert area == pytest.approx(np.pi, rel=0.01)


@pytest.mark.parametrize("res, bound, n, seed", [
    (512, 2.05, 10, 0),    # base grid 64, three levels
    (2048, 2.05, 10, 0),   # base grid 64, five levels
    (1536, 2.05, 10, 0),   # base grid 96, not a power of two
    (1024, 1.25, 100, 1),  # dense roots: many unresolved coarse cells
])
def test_mask_matches_brute_force_log_evaluation(res, bound, n, seed):
    # the quadtree fill must agree with per-pixel evaluation exactly
    stream = derive_substream(30, seed)
    poly = RootedPolynomial(sample_disc_array(stream, n))
    grid = rasterize(poly, res, bound)
    h = 2.0 * bound / res
    xs = -bound + (np.arange(res) + 0.5) * h
    z = xs[None, :] + 1j * (bound - (np.arange(res) + 0.5) * h)[:, None]
    acc = np.zeros(z.shape)
    for r in poly.roots:
        acc += np.log(np.abs(z - r) ** 2)
    brute = 0.5 * acc < 0
    assert np.array_equal(grid.inside_mask, brute)


def test_every_root_pixel_is_inside():
    stream = derive_substream(31, 0)
    poly = RootedPolynomial(sample_disc_array(stream, 12))
    grid = rasterize(poly, 512, 1.25)
    px = grid.pixel_size()
    for root in poly.roots:
        j = int((root.real + 1.25) / px)
        i = int((1.25 - root.imag) / px)
        assert grid.inside_mask[i, j]


def test_component_stats_trivial_and_synthetic():
    poly = RootedPolynomial([0.0])
    assert mask_component_stats(rasterize(poly, 128, 1.25).inside_mask)[0] == 1
    mask = np.zeros((128, 128), dtype=bool)
    mask[10:14, 10:14] = True
    mask[100:110, 90:95] = True
    cnt, sizes, bbox = mask_component_stats(mask)
    assert cnt == 2
    assert sizes.tolist() == [16, 50]
    assert bbox.tolist() == [[10, 13, 10, 13], [100, 109, 90, 94]]


def _spiral_mask(size, w):
    """One square spiral, arms and gaps w wide, walked inwards from the top.

    Each left arm climbs back up to the next turn, so the rows below a
    turn reach the component's first run only through a long path.
    """
    mask = np.zeros((size, size), dtype=bool)
    lo, hi = 0, size
    while hi - lo > 4 * w:
        mask[lo:lo + w, lo:hi] = True
        mask[lo:hi, hi - w:hi] = True
        mask[hi - w:hi, lo:hi] = True
        mask[lo + 2 * w:hi, lo:lo + w] = True
        mask[lo + 2 * w:lo + 3 * w, lo:lo + 3 * w] = True
        lo, hi = lo + 2 * w, hi - 2 * w
    return mask


def _serpentine_mask(size, w):
    """Full-height bars w wide, joined in turn at the bottom and the top."""
    mask = np.zeros((size, size), dtype=bool)
    cols = range(0, size - w + 1, 2 * w)
    for k, c in enumerate(cols):
        mask[:, c:c + w] = True
        if k + 1 < len(cols):
            r = size - w if k % 2 == 0 else 0
            mask[r:r + w, c:c + 3 * w] = True
    return mask


def _random_masks(rng):
    for density in (0.2, 0.45, 0.6):
        for _ in range(10):
            yield rng.random((96, 96)) < density
        # taller than one 256-row block of the run pass
        yield rng.random((300, 300)) < density
        # runs that touch both edge columns
        mask = rng.random((96, 96)) < density
        mask[:, 0] = mask[:, -1] = True
        yield mask
    yield np.zeros((96, 96), dtype=bool)
    yield np.ones((300, 300), dtype=bool)
    for w in (1, 2, 5):
        yield _spiral_mask(300, w)
        yield _serpentine_mask(300, w)


def test_labeling_matches_scipy_on_random_masks():
    for mask in _random_masks(np.random.default_rng(8)):
        scipy_labels, scipy_count = ndimage.label(mask, structure=CROSS)
        cnt, sizes, bbox = mask_component_stats(mask)
        assert cnt == scipy_count
        # ours are ordered by first pixel; match scipy's labels through theirs
        firsts = np.unique(scipy_labels[mask], return_index=True)[1]
        order = scipy_labels[mask][np.sort(firsts)] - 1
        slices = ndimage.find_objects(scipy_labels)
        ref_sizes = np.bincount(scipy_labels.ravel(), minlength=cnt + 1)[1:]
        assert sizes.tolist() == ref_sizes[order].tolist()
        ref_bbox = [[slices[k][0].start, slices[k][0].stop - 1,
                     slices[k][1].start, slices[k][1].stop - 1] for k in order]
        assert bbox.tolist() == ref_bbox


#: criterion 03's seed-0 jobs at 4096^2: n -> (count, sizes, bbox, sha256 of the mask)
MASKS_4096 = {
    3: (1, [3096226], [[1610, 3444, 954, 3122]],
         "7b77c8009f95249f97297aeb6c42c50446688c7443c230b606fc13f5738c3c1e"),
    4: (1, [2959610], [[1321, 3168, 1030, 3332]],
         "9d67d07ccc041e17e8cd23b9182ebff112a1ad9b318b5232c3ae8fd4a562c3f6"),
    5: (1, [3129529], [[726, 2688, 1153, 3198]],
         "a7fcdfc278249f4d42cd0e9a5f96b541cacd56e9de366f5eb91a5e31681add03"),
    6: (1, [3123650], [[1121, 3020, 831, 2924]],
         "d2603041ec4630da479729df4d5bfa53d4a5d461cc6ade8775f2858021127df0"),
    7: (1, [3102652], [[979, 3013, 974, 2869]],
         "79873b7cebb2f5678549852dc59bdc991da965f458d69879f5c02b32b7f5fa6e"),
    8: (1, [3123555], [[1235, 3221, 1170, 3152]],
         "ca5d92b6bbe44fa5fc1576e8f14ca1433f850b7e5adca0cfcb443786775875f2"),
    9: (1, [3106787], [[1407, 3258, 1200, 3300]],
         "e2ec75e3044da030a81d0253c6da5f9a6838cecf1f7fc318aa7366448af1d7cf"),
    10: (1, [3071752], [[1161, 3109, 1102, 3141]],
         "5b45201936e931f849613632cfc6d18c45d81c70475cb28cb212e56d98c69b2b"),
    11: (1, [3055846], [[1108, 3116, 869, 2857]],
         "e671ad546c7054caf4681e53b1cd3ee59feed50b48ca8d7bbd01113775a4b6f0"),
    12: (1, [3051798], [[980, 2966, 898, 3042]],
         "e20ea7fef4fe59abfb8d8572609400ffd730015d46da4faa421351f82a1efc0e"),
}


def test_masks_pinned_4096():
    # the same substreams as criterion 03, so no quadtree change moves a pixel unseen
    for n, (count, sizes, bbox, digest) in MASKS_4096.items():
        stream = derive_substream(4203, n * 1000)
        poly = RootedPolynomial(sample_disc_array(stream, n))
        mask = rasterize(poly, 4096, 2.05).inside_mask
        cnt, got_sizes, got_bbox = mask_component_stats(mask)
        assert (cnt, got_sizes.tolist(), got_bbox.tolist()) == (count, sizes, bbox)
        assert hashlib.sha256(mask.tobytes()).hexdigest() == digest


def test_counts_match_critical_value_counts():
    for seed in range(10):
        stream = derive_substream(33, seed)
        n = 3 + seed
        poly = RootedPolynomial(sample_disc_array(stream, n))
        crit = find_critical_points(poly, stream=stream)
        rep = count_components(poly, crit)
        cnt, _, _ = mask_component_stats(rasterize(poly, 2048, 2.05).inside_mask)
        assert cnt == rep.components


def test_count_stable_under_bound_enlargement():
    # the lemniscate sits inside |z| < 2, so any bound >= 2 sees all of it
    for seed in range(12):
        stream = derive_substream(34, seed)
        poly = RootedPolynomial(sample_disc_array(stream, 3 + (seed % 10)))
        counts = []
        for bound in (2.05, 2.5, 3.0):
            grid = rasterize(poly, 1024, bound)
            cnt, _, _ = mask_component_stats(grid.inside_mask)
            counts.append(cnt)
        assert counts[0] == counts[1] == counts[2]


def test_refinement_stability_with_ambiguity_coincidence():
    mismatches = 0
    trials = 0
    for n in (3, 8, 12):
        for seed in range(10):
            stream = derive_substream(35, 100 * n + seed)
            poly = RootedPolynomial(sample_disc_array(stream, n))
            c1, _, _ = mask_component_stats(rasterize(poly, 2048, 2.05).inside_mask)
            c2, sizes, bbox = mask_component_stats(rasterize(poly, 4096, 2.05).inside_mask)
            trials += 1
            if c1 != c2:
                mismatches += 1
                # a disagreement must come from a near-tie critical value
                # or a component at the pixel scale
                crit = find_critical_points(poly, stream=stream)
                rep = count_components(poly, crit)
                near_tie = np.min(np.abs(rep.crit_log_values)) < 1e-6
                diam = np.maximum(bbox[:, 1] - bbox[:, 0], bbox[:, 3] - bbox[:, 2]) + 1
                tiny = (diam < 3).any()
                assert near_tie or tiny
    assert mismatches <= max(1, trials // 30)


def test_ppm_output(tmp_path):
    stream = derive_substream(36, 0)
    poly = RootedPolynomial(sample_disc_array(stream, 100))
    grid = rasterize(poly, 512, 1.25)
    path = tmp_path / "lem.ppm"
    write_ppm(grid, poly, 2.0, path)
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n512 512\n255\n")
    img = np.frombuffer(blob[len(b"P6\n512 512\n255\n"):], dtype=np.uint8)
    img = img.reshape(512, 512, 3)
    green = (img == np.array([0, 200, 0])).all(axis=2)
    red = (img == np.array([220, 40, 40])).all(axis=2)
    yellow = (img == np.array([240, 220, 60])).all(axis=2)
    assert green.sum() >= poly.n
    assert (green | red | yellow).sum() > 0
    # the high-probability inradius disc must not contain outside pixels
    xs = -1.25 + (np.arange(512) + 0.5) * (2.5 / 512)
    ys = 1.25 - (np.arange(512) + 0.5) * (2.5 / 512)
    rad = np.hypot(xs[None, :], ys[:, None])
    from lemlab.components import annulus_inner_radius

    r_in = annulus_inner_radius(poly.n, 2.0)
    assert not red[rad < r_in].any()
    assert yellow[rad < r_in - grid.pixel_size()].all()


def test_validation_and_memory_cap():
    poly = RootedPolynomial([0.0])
    with pytest.raises(ValueError):
        rasterize(poly, 32, 1.25)
    with pytest.raises(ValueError):
        rasterize(poly, 128, 0.9)
    with pytest.raises(GridMemoryError):
        rasterize(poly, 16384, 1.25)
