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


def test_mask_matches_brute_force_log_evaluation():
    # the quadtree fill must agree with per-pixel evaluation exactly
    stream = derive_substream(30, 0)
    poly = RootedPolynomial(sample_disc_array(stream, 10))
    grid = rasterize(poly, 512, 2.05)
    xs = -2.05 + (np.arange(512) + 0.5) * (4.10 / 512)
    z = xs[None, :] + 1j * (2.05 - (np.arange(512) + 0.5) * (4.10 / 512))[:, None]
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
