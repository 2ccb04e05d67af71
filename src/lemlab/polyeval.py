"""Root-based evaluation of P(z) = prod (z - x_k) and its derived sums.

The polynomial is always represented by its roots; coefficients never
appear outside the small-degree test oracles.  Everything needed by the
lemniscate experiments is a root sum:

    log|P(z)|      = sum_k log|z - x_k|
    P'(z)/P(z)     = sum_k 1/(z - x_k)
    (P'^2 - P P'')(z) / P(z)^2 = sum_k 1/(z - x_k)^2

Every evaluation in the package but one goes through `pair_sums`, which
takes m points against n roots (shared, or one row of roots per point)
and sums over the roots in root-index order (numpy's fixed pairwise
reduction of each row), chosen for reproducibility over the last bits
of accuracy.  The one exception is `raster`, whose cell values stay a
separate, independent oracle for the critical-value count.

The sums are division-free.  For each pair, d = z - x_k and
q = re(d)^2 + im(d)^2 are formed once, and every reduction comes from
them: the nearest root is sqrt(min q), 1/d is conj(d)/q, so
S = conj(sum d * (1/q)) and R = conj(sum (d * (1/q))^2), and
log|P| = 0.5 * sum log q.  numpy's complex 1/d follows Smith's algorithm
(two real divisions and a branch per element) only to keep |d|^2 from
overflowing, which needs |d| above about 1e154; the differences formed
here are at most a few units.  At the other end, q underflows and 1/q
is inf below about 1e-154, so a difference that small, or zero, gives
a non-finite S and R; the callers test for that, and the solver
replaces the non-finite update it gives with a bounded step off the
root.  Negation is exact, so the conjugate of an m-long sum is bit
for bit the sum of the conjugates, and it is taken once per output, not
once per pair.  A skipped pair has q = inf: it adds d * 0 = 0 to S and
R and drops out of the minimum, and its log is set to 0.

`pair_sums` takes the points in row blocks of BLOCK_PAIRS // n rows
(one row when n exceeds BLOCK_PAIRS) and writes each block's
differences, q and d/q with `out=` into scratch arrays held per thread
(`threading.local`).  A complex block of 2**15 pairs is 512 KB, so it
stays in cache; the scratch grows to the largest block the thread has
used and is kept, so no pass hands memory back to the allocator only
to fault it in again on the next call.  Blocking moves no bit: each
block is a C-contiguous (rows, n) array, numpy reduces each row on its
own, and every element goes through the same operations whatever the
block.
"""

from __future__ import annotations

import threading

import numpy as np

#: construction-time minimum allowed distance between two roots
DISTINCT_TOL = 1e-15
#: point-root pairs per row block of `pair_sums`
BLOCK_PAIRS = 1 << 15

_scratch = threading.local()
_DTYPES = {"dmin": np.float64, "S": np.complex128, "R": np.complex128, "log": np.float64}


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


def _workspace(pairs):
    """This thread's scratch: at least `pairs` complex and 2 * `pairs` float slots."""
    work = getattr(_scratch, "arrays", None)
    if work is None or work[0].size < pairs:
        work = _scratch.arrays = (np.empty(pairs, np.complex128), np.empty(2 * pairs))
    return work


def pair_sums(z, x, *names, skip=None):
    """Reductions over the pairs (z_i, x_ik) of complex arrays, by row blocks.

    `x` holds the roots: 1-D when every point shares them, or 2-D with
    row i the roots of point z_i.  Returns one array of z's length per
    name, in the order given: "dmin" = min_k |z_i - x_ik|,
    "S" = sum_k 1/(z_i - x_ik), "R" = sum_k 1/(z_i - x_ik)^2 and
    "log" = sum_k log|z_i - x_ik|, each from q = |d|^2 as the module
    docstring sets out.  With `skip` (one column per row), the pair
    (i, skip[i]) adds 0 to S, R and log and drops out of dmin.

    No coincidence guard: a difference below about 1e-154 in modulus,
    zero included, gives a non-finite S and R.  The solver's bounded
    fallback step and the conditioned event's redraw test for it.
    """
    m, n = z.size, x.shape[-1]
    rows = max(1, BLOCK_PAIRS // n)
    cwork, fwork = _workspace(min(m, rows) * n)
    out = {name: np.empty(m, _DTYPES[name]) for name in names}
    dmin, S, R, log = map(out.get, ("dmin", "S", "R", "log"))
    if skip is not None:
        row = np.arange(min(m, rows))
    with np.errstate(all="ignore"):
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            k = (hi - lo) * n
            d = np.subtract(z[lo:hi, None], x if x.ndim == 1 else x[lo:hi],
                            out=cwork[:k].reshape(hi - lo, n))
            q = np.square(d.real, out=fwork[:k].reshape(d.shape))
            b = np.square(d.imag, out=fwork[k:2 * k].reshape(d.shape))
            q += b
            if skip is not None:
                at = row[:hi - lo], skip[lo:hi]
                q[at] = np.inf
            if dmin is not None:
                np.minimum.reduce(q, axis=1, out=dmin[lo:hi])
            if log is not None:
                np.log(q, out=b)
                if skip is not None:
                    b[at] = 0.0
                np.add.reduce(b, axis=1, out=log[lo:hi])
            if S is not None or R is not None:
                np.multiply(d, np.reciprocal(q, out=q), out=d)
                if S is not None:
                    np.add.reduce(d, axis=1, out=S[lo:hi])
                if R is not None:
                    np.add.reduce(np.square(d, out=d), axis=1, out=R[lo:hi])
    if dmin is not None:
        np.sqrt(dmin, out=dmin)
    if log is not None:
        log *= 0.5
    for a in (S, R):
        if a is not None:
            np.conjugate(a, out=a)
    return tuple(out[name] for name in names)


def log_abs_p(poly, z):
    """log|P(z)|; -inf if z sits on a root.

    `z` may be a complex scalar or ndarray; the return matches.
    """
    z = np.asarray(z, dtype=np.complex128)
    (out,) = pair_sums(z.ravel(), poly.roots, "log")
    return out.reshape(z.shape) if z.ndim else float(out[0])
