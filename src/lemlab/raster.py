"""Rasterized view of the lemniscate: the independent geometric oracle.

`rasterize` produces the exact pixel mask {log|P(center)| < 0} without
evaluating every pixel.  The quadtree starts at the coarsest even
division with at least 64 cells per side (64^2 at 4096^2), whose center
signs fill the mask in one broadcast.  Each cell carries the rigorous
bound |log|P(z)| - log|P(c)|| <= rho * sum_k 1/(|c - x_k| - rho)  (rho =
half cell diagonal), which holds at any cell size, so a cell whose
center value clears it is uniformly inside or outside; only cells
straddling the zero level set (or touching a root) are refined, down to
single pixels, and overwrite their part of the fill.  The result is
bit-identical to brute-force evaluation of log|P| at all pixel centers,
at a fraction of the cost.  Cell values take one log per product of
_PRODUCT_CHUNK squared root distances.

`mask_component_stats` reads the mask's runs in one pass over blocks of
rows and joins overlapping runs of adjacent rows with array operations
(index ranges by searchsorted, then hooking and pointer jumping); with
no label image, its cost follows the runs, far fewer than the pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: refuse grids above this many pixels (memory guard)
MAX_PIXELS = 1 << 26

#: squared root distances multiplied before each log is taken
_PRODUCT_CHUNK = 24

#: rows per block in the run-extraction pass
_RUN_BLOCK_ROWS = 256


class GridMemoryError(MemoryError):
    """Requested raster exceeds the configured pixel cap."""


@dataclass
class RasterGrid:
    """Pixel mask of {log|P| < 0} over the square [-bound, bound]^2.

    Row 0 is the top of the image (y = +bound); pixel (i, j) has center
    x = -bound + (j + 0.5) * (2*bound/res), y = bound - (i + 0.5) * (...).
    """

    resolution: int
    bound: float
    inside_mask: np.ndarray

    def pixel_size(self):
        return 2.0 * self.bound / self.resolution


def _pixel_centers(resolution, bound):
    h = 2.0 * bound / resolution
    xs = -bound + (np.arange(resolution) + 0.5) * h
    ys = bound - (np.arange(resolution) + 0.5) * h
    return xs, ys


def _cell_values(roots, x, y, want_bound, rho):
    """log|P| at cell centers, plus the Lipschitz radius bound if wanted."""
    v = None
    ssum = np.zeros_like(x) if want_bound else None
    ok = np.ones(x.shape, dtype=bool) if want_bound else None
    for start in range(0, roots.size, _PRODUCT_CHUNK):
        prod = np.ones_like(x)
        for r in roots[start:start + _PRODUCT_CHUNK]:
            dx = x - r.real
            dy = y - r.imag
            sq = dx * dx + dy * dy
            prod *= sq
            if want_bound:
                gap = np.sqrt(sq) - rho
                bad = gap <= 0.0
                ok &= ~bad
                ssum += 1.0 / np.where(bad, 1.0, gap)
        with np.errstate(divide="ignore"):
            np.log(prod, out=prod)
        # logs in place, the first chunk's as v: no extra cell-sized array
        v = prod if v is None else np.add(v, prod, out=v)
    v *= 0.5
    if not want_bound:
        return v, None, None
    bnd = rho * ssum * (1.0 + 1e-12) + 1e-12
    return v, bnd, ok


def rasterize(poly, resolution, bound=1.25):
    """Exact inside mask at pixel centers (see module docstring)."""
    if resolution < 64:
        raise ValueError("resolution >= 64 required")
    if bound <= 1.0:
        raise ValueError("bound > 1 required")
    if resolution * resolution > MAX_PIXELS:
        raise GridMemoryError(
            "resolution %d exceeds the %d-pixel cap" % (resolution, MAX_PIXELS)
        )
    roots = poly.roots
    levels = 0
    while resolution % (1 << (levels + 1)) == 0 and (resolution >> (levels + 1)) >= 64:
        levels += 1
    res0 = resolution >> levels
    mask = np.empty((resolution, resolution), dtype=bool)
    I, J = np.divmod(np.arange(res0 * res0, dtype=np.int64), res0)
    rl = res0
    while True:
        h = 2.0 * bound / rl
        x = -bound + (J + 0.5) * h
        y = bound - (I + 0.5) * h
        final = rl == resolution
        rho = h / np.sqrt(2.0)
        v, bnd, ok = _cell_values(roots, x, y, want_bound=not final, rho=rho)
        s = resolution // rl
        view = mask.reshape(rl, s, rl, s)
        if rl == res0:
            # every base cell's center sign; finer levels overwrite the refined ones
            view[...] = (v < 0.0).reshape(rl, 1, rl, 1)
        elif final:
            mask[I, J] = v < 0.0
        if final:
            break
        uniform = ok & (np.abs(v) > bnd)
        if rl > res0:
            view[I[uniform], :, J[uniform], :] = (v[uniform] < 0.0)[:, None, None]
        keep = ~uniform
        k = int(keep.sum())
        I = np.repeat(I[keep] * 2, 4) + np.tile(np.array([0, 0, 1, 1]), k)
        J = np.repeat(J[keep] * 2, 4) + np.tile(np.array([0, 1, 0, 1]), k)
        rl *= 2
    return RasterGrid(resolution=resolution, bound=float(bound), inside_mask=mask)


def _mask_runs(mask):
    """Row-major runs of True: (row, col_start, col_end_exclusive).

    Blocks of rows are copied into one buffer with a False column on
    each side, so in each row the transitions alternate rise, fall and
    come out of flatnonzero in row-major order, already paired.  The
    buffer keeps the extra memory to one block, not a padded mask.
    """
    nrows, ncols = mask.shape
    width = ncols + 1
    buf = np.zeros((min(_RUN_BLOCK_ROWS, nrows), ncols + 2), dtype=bool)
    flat = []
    for r0 in range(0, nrows, _RUN_BLOCK_ROWS):
        b = buf[:min(_RUN_BLOCK_ROWS, nrows - r0)]
        b[:, 1:-1] = mask[r0:r0 + b.shape[0]]
        flat.append(np.flatnonzero(b[:, 1:] != b[:, :-1]) + r0 * width)
    rows, cols = np.divmod(np.concatenate(flat), width)
    return rows[0::2], cols[0::2], cols[1::2]


def _union_runs(res, rows, c0, c1):
    """Connected runs as array operations; 0-based per-run labels and the count.

    The runs of row r-1 that overlap run j form one index range, found
    by two searchsorted calls on row-major start and end keys.  Each
    round hooks every root to the smallest root it shares an edge with
    and jumps pointers to the roots, so each root is its component's
    first run and labels follow first appearance in row-major order.
    """
    width = res + 1
    start = rows * width + c0
    end = rows * width + c1
    lo = np.searchsorted(end, start - width, side="right")
    cnt = np.maximum(np.searchsorted(start, end - width) - lo, 0)
    b = np.repeat(np.arange(rows.size), cnt)
    a = np.arange(b.size) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)
    parent = np.arange(rows.size, dtype=np.int64)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        np.minimum.at(parent, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])
        # every pointer goes to a smaller index, so jumping reaches the roots
        while not np.array_equal(up := parent[parent], parent):
            parent = up
    roots, run_label = np.unique(parent, return_inverse=True)
    return run_label, roots.size


def mask_component_stats(mask):
    """(count, sizes, bboxes) of the 4-connected components of `mask`.

    bboxes has one row (rmin, rmax, cmin, cmax) per component, inclusive;
    components are ordered by their first pixel in row-major order.
    """
    res = mask.shape[0]
    rows, c0, c1 = _mask_runs(mask)
    run_label, count = _union_runs(res, rows, c0, c1)
    sizes = np.zeros(count, dtype=np.int64)
    np.add.at(sizes, run_label, c1 - c0)
    bbox = np.empty((count, 4), dtype=np.int64)
    bbox[:, 0] = res
    bbox[:, 1] = -1
    bbox[:, 2] = res
    bbox[:, 3] = -1
    np.minimum.at(bbox[:, 0], run_label, rows)
    np.maximum.at(bbox[:, 1], run_label, rows)
    np.minimum.at(bbox[:, 2], run_label, c0)
    np.maximum.at(bbox[:, 3], run_label, c1 - 1)
    return count, sizes, bbox


# ---------------------------------------------------------------- imaging

COLOR_INSIDE_DISC = (0, 200, 0)
COLOR_OUTSIDE_DISC = (220, 40, 40)
COLOR_INRADIUS = (240, 220, 60)
COLOR_EXTERIOR = (255, 255, 255)
COLOR_INSIDE_BEYOND = (150, 230, 150)


def write_ppm(grid, poly, kappa, path):
    """Binary PPM of the classified raster.

    Green: lemniscate intersected with the unit disc; red: unit disc
    outside the lemniscate; yellow: the high-probability inradius disc
    of radius 1 - kappa*sqrt(log n / n) where it lies in the lemniscate;
    light green: lemniscate outside the unit disc; white: elsewhere.
    """
    res = grid.resolution
    xs, ys = _pixel_centers(res, grid.bound)
    rad2 = xs[None, :] ** 2 + ys[:, None] ** 2
    inside = grid.inside_mask
    in_disc = rad2 < 1.0
    from .components import annulus_inner_radius

    r_in = annulus_inner_radius(poly.n, kappa)
    img = np.empty((res, res, 3), dtype=np.uint8)
    img[:] = COLOR_EXTERIOR
    img[inside & ~in_disc] = COLOR_INSIDE_BEYOND
    img[~inside & in_disc] = COLOR_OUTSIDE_DISC
    img[inside & in_disc] = COLOR_INSIDE_DISC
    if r_in > 0:
        img[inside & (rad2 < r_in * r_in)] = COLOR_INRADIUS
    header = b"P6\n%d %d\n255\n" % (res, res)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(img.tobytes())
    except OSError as exc:
        raise OSError("writing PPM to %r failed: %s" % (path, exc)) from exc
