"""Shared test oracles, independent of the library's evaluation paths.

The coefficient oracle expands the polynomial from its roots by repeated
convolution and evaluates by Horner's rule; it is only trustworthy for
small degrees, which is exactly where it is used.  The winding oracle
counts zeros inside a rectangle with the argument principle on a dense
boundary walk.
"""

import functools

import numpy as np


def coeffs_from_roots(roots):
    """Monic coefficients, highest power first."""
    c = np.array([1.0 + 0.0j])
    for r in roots:
        c = np.convolve(c, np.array([1.0, -r]))
    return c


def polyval_coeffs(c, z):
    out = np.zeros_like(np.asarray(z, dtype=complex))
    for a in c:
        out = out * z + a
    return out


def polyder_coeffs(c):
    n = len(c) - 1
    return np.array([c[k] * (n - k) for k in range(n)])


def winding_zero_count(coeffs, rect, points_per_side=6000):
    """Zeros (with multiplicity) of the polynomial inside a rectangle.

    Counts the winding of the boundary image; accurate when no zero sits
    within ~1/points_per_side of the boundary.
    """
    x0, x1, y0, y1 = rect
    t = np.linspace(0.0, 1.0, points_per_side, endpoint=False)
    bottom = x0 + (x1 - x0) * t + 1j * y0
    right = x1 + 1j * (y0 + (y1 - y0) * t)
    top = x1 - (x1 - x0) * t + 1j * y1
    left = x0 + 1j * (y1 - (y1 - y0) * t)
    path = np.concatenate([bottom, right, top, left])
    vals = polyval_coeffs(coeffs, path)
    args = np.angle(vals)
    d = np.diff(np.concatenate([args, args[:1]]))
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(d.sum() / (2.0 * np.pi)))


def disc_points(rng, count):
    """Uniform disc points from a plain numpy Generator (not the package RNG)."""
    return np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))


# --------------------------------------------------------------------------
# Exact distribution of the heavy-tailed walk, independent of Monte Carlo.
# The increment Y(r) = r - Re(1/(r - X)) has sublevel sets that are discs,
# so its full CDF is an intersection-of-circles area; the walk's law then
# follows by characteristic-function convolution on a periodic grid.


def _lens_area(d, r1, r2):
    """Area of the intersection of two discs with radii r1, r2 whose
    centres are d apart; elementwise over arrays."""
    d, r1, r2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (d, r1, r2)))
    apart = d >= r1 + r2
    nested = d <= np.abs(r1 - r2)
    lens = ~(apart | nested)
    out = np.zeros(d.shape)
    rr = np.minimum(r1[nested], r2[nested])
    out[nested] = np.pi * rr * rr
    dl, p, q = d[lens], r1[lens], r2[lens]
    a1 = np.arccos((dl * dl + p * p - q * q) / (2 * dl * p))
    a2 = np.arccos((dl * dl + q * q - p * p) / (2 * dl * q))
    out[lens] = p * p * (a1 - np.sin(2 * a1) / 2) + q * q * (a2 - np.sin(2 * a2) / 2)
    return out


def exact_increment_cdf(r, t):
    """P(Y(r) <= t) for every t, via circle-intersection areas; elementwise."""
    t = np.asarray(t, dtype=float)
    t = np.where(t == r, r - 1e-12, t)
    c = r - 1.0 / (2.0 * (r - t))
    rad = 1.0 / (2.0 * np.abs(r - t))
    frac = _lens_area(np.abs(c), rad, 1.0) / np.pi
    return np.where(t < r, frac, 1.0 - frac)


@functools.lru_cache(maxsize=4)
def _increment_spectrum(r, L, M):
    """rfft of the increment law binned on M cells of width 2L/M centred
    on -L + k*h, with the mass beyond the grid folded into the end cells.
    Depends only on (r, grid), so every walk length and interval reuses it."""
    h = 2.0 * L / M
    edges = -L + h * np.arange(M + 1) - h / 2.0
    cdf = exact_increment_cdf(r, edges)
    pmf = np.diff(cdf)
    pmf[pmf < 0] = 0.0
    pmf[0] += cdf[0]
    pmf[-1] += 1.0 - cdf[-1]
    return np.fft.rfft(pmf)


def exact_walk_interval_prob(r, n, a, b, half_range=2.0**15, points=2**21):
    """P(W_n(r) in [a, b]) by n-fold convolution of the exact increment law."""
    L = float(half_range)
    M = int(points)
    h = 2.0 * L / M
    phi = _increment_spectrum(float(r), L, M)
    conv = np.fft.irfft(phi**n, M)
    vals = (-n * L + h * np.arange(M)) % (2.0 * L)
    sel = (vals >= a) & (vals <= b)
    return float(conv[sel].sum())


def median_of_means(values, blocks=32):
    """Robust location estimate for heavy-tailed samples.

    Splits `values` (in order) into `blocks` nearly equal blocks and
    returns the median of the block means.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < blocks:
        return float(np.median(values))
    parts = np.array_split(values, blocks)
    means = np.array([p.mean() for p in parts])
    return float(np.median(means))
