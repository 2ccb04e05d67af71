"""Root-based evaluation of P(z) = prod (z - x_k) and its derived sums.

The polynomial is always represented by its roots; coefficients never
appear outside the small-degree test oracles.  Everything needed by the
lemniscate experiments is a root sum:

    log|P(z)|      = sum_k log|z - x_k|
    P'(z)/P(z)     = sum_k 1/(z - x_k)
    (P'^2 - P P'')(z) / P(z)^2 = sum_k 1/(z - x_k)^2

Every evaluation in the package sums over the last axis of a difference
array z - x_k in root-index order (numpy's fixed pairwise reduction of
each row), chosen for reproducibility over the last bits of accuracy.
The kernels `log_modulus` and `recip_sums` take such an array whole.
The one exception is `raster`, whose cell values stay a separate,
independent oracle for the critical-value count.

`pair_sums` is the same arithmetic for m points against n roots without
the m x n array.  It takes the points in row blocks of BLOCK_PAIRS // n
rows (one row when n exceeds BLOCK_PAIRS) and writes each block's
differences, moduli and reciprocals with `out=` into scratch arrays held
per thread (`threading.local`).  A complex block of 2**15 pairs is
512 KB, so it stays in cache; the scratch grows to the largest block the
thread has used and is kept, so no pass hands memory back to the
allocator only to fault it in again on the next call.  Blocking moves
no bit: each block is a C-contiguous (rows, n) array, numpy reduces
each row on its own, and every element goes through the same
operations as in `log_modulus` and `recip_sums`.
"""

from __future__ import annotations

import threading

import numpy as np

#: construction-time minimum allowed distance between two roots
DISTINCT_TOL = 1e-15
#: point-root pairs per row block of `pair_sums`
BLOCK_PAIRS = 1 << 15

_scratch = threading.local()


class RootedPolynomial:
    """Monic polynomial held as an ordered array of complex roots.

    Roots must lie in the closed unit disc and be pairwise distinct
    (within DISTINCT_TOL).  Immutable after construction; safe to share
    across threads.
    """

    __slots__ = ("roots",)

    def __init__(self, roots):
        roots = np.asarray(roots, dtype=np.complex128)
        if roots.ndim != 1 or roots.size < 1:
            raise ValueError("need a 1-D, non-empty root array")
        if not np.all(np.isfinite(roots)):
            raise ValueError("roots must be finite")
        if np.abs(roots).max() > 1.0 + 1e-12:
            raise ValueError("roots must lie in the closed unit disc")
        pair = close_pair(roots, DISTINCT_TOL)
        if pair is not None:
            raise ValueError("roots %d and %d coincide within %g" % (*pair, DISTINCT_TOL))
        roots.setflags(write=False)
        self.roots = roots

    @property
    def n(self):
        return self.roots.size

    def __repr__(self):
        return "RootedPolynomial(n=%d)" % self.n


def close_pair(pts, tol):
    """Indices (a, b) of the first pair of `pts` at most `tol` apart, or None.

    Sorted by real part, points that close are that close in real part,
    so each point is tested only against the later points of a window of
    width 2 * tol (a superset despite rounding), all windows at once.
    "First" is in real-part order of a, then of b.
    """
    order = np.argsort(pts.real, kind="stable")
    sr = pts[order]
    ends = np.searchsorted(sr.real, sr.real + 2.0 * tol, side="right")
    width = ends - np.arange(sr.size) - 1
    i = np.repeat(np.arange(sr.size), width)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(width) - width, width)
    close = np.flatnonzero(np.abs(sr[j] - sr[i]) <= tol)
    if not close.size:
        return None
    k = close[0]
    return int(order[i[k]]), int(order[j[k]])


def log_modulus(diff):
    """0.5 * sum log(re^2 + im^2) over the last axis of `diff`.

    With diff = z - x_k this is log|P(z)|; a zero difference gives -inf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * np.sum(np.log(diff.real**2 + diff.imag**2), axis=-1)


def recip_sums(diff):
    """(S, R) = (sum 1/d, sum (1/d)^2) over the last axis of `diff`.

    No coincidence guard: a zero difference yields inf or nan, which the
    callers test for (or know cannot occur).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.divide(1.0, diff)
        s = np.sum(inv, axis=-1)
        return s, np.sum(np.multiply(inv, inv, out=inv), axis=-1)


def _workspace(pairs):
    """This thread's scratch: at least `pairs` complex and 2 * `pairs` float slots."""
    work = getattr(_scratch, "arrays", None)
    if work is None or work[0].size < pairs:
        work = _scratch.arrays = (np.empty(pairs, np.complex128), np.empty(2 * pairs))
    return work


def pair_sums(z, x, *names, skip=None):
    """Reductions over the pairs (z_i, x_k) of 1-D complex arrays, by row blocks.

    Returns one array of z's length per name, in the order given:
    "dmin" = min_k |z_i - x_k|, "S" = sum_k 1/(z_i - x_k),
    "R" = sum_k 1/(z_i - x_k)^2 and "log" = log|P(z_i)|, bit for bit
    what `np.abs(d).min(axis=1)`, `recip_sums(d)` and `log_modulus(d)`
    give on d = z[:, None] - x.  With `skip` (one column per row), the
    pair (i, skip[i]) is set to inf, so it adds 1/inf = 0 to S and R and
    drops out of dmin.
    """
    if not set(names) <= {"dmin", "S", "R", "log"}:
        raise ValueError("unknown pair sum in %r" % (names,))
    m, n = z.size, x.size
    rows = max(1, BLOCK_PAIRS // n)
    cwork, fwork = _workspace(min(m, rows) * n)
    out = {name: np.empty(m, np.complex128 if name in ("S", "R") else np.float64)
           for name in names}
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            k = (hi - lo) * n
            d = np.subtract(z[lo:hi, None], x, out=cwork[:k].reshape(hi - lo, n))
            if skip is not None:
                d[np.arange(hi - lo), skip[lo:hi]] = np.inf
            a = fwork[:k].reshape(d.shape)
            if "dmin" in out:
                np.minimum.reduce(np.abs(d, out=a), axis=1, out=out["dmin"][lo:hi])
            if "log" in out:
                b = fwork[k:2 * k].reshape(d.shape)
                np.add(np.square(d.real, out=a), np.square(d.imag, out=b), out=a)
                np.add.reduce(np.log(a, out=a), axis=1, out=out["log"][lo:hi])
            if "S" in out or "R" in out:
                np.divide(1.0, d, out=d)
                if "S" in out:
                    np.add.reduce(d, axis=1, out=out["S"][lo:hi])
                if "R" in out:
                    np.add.reduce(np.multiply(d, d, out=d), axis=1, out=out["R"][lo:hi])
    if "log" in out:
        out["log"] *= 0.5
    return tuple(out[name] for name in names)


def log_abs_p(poly, z):
    """log|P(z)|; -inf if z sits on a root.

    `z` may be a complex scalar or ndarray; the return matches.
    """
    z = np.asarray(z, dtype=np.complex128)
    (out,) = pair_sums(z.ravel(), poly.roots, "log")
    return out.reshape(z.shape) if z.ndim else float(out[0])
