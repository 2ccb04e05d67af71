"""Root-based evaluation of P(z) = prod (z - x_k) and its derived sums.

The polynomial is always represented by its roots; coefficients never
appear outside the small-degree test oracles.  Everything needed by the
lemniscate experiments is a root sum:

    log|P(z)|      = sum_k log|z - x_k|
    P'(z)/P(z)     = sum_k 1/(z - x_k)
    (P'^2 - P P'')(z) / P(z)^2 = sum_k 1/(z - x_k)^2

Every evaluation in the package goes through the two kernels
`log_modulus` and `recip_sums`, which take a difference array z - x_k
and sum over its last axis in root-index order (numpy's fixed pairwise
reduction), chosen for reproducibility over the last bits of accuracy.
The one exception is `raster`, whose cell values stay a separate,
independent oracle for the critical-value count.
"""

from __future__ import annotations

import numpy as np

#: below this distance s_sum and r_sum treat a query point as sitting on a root
COINCIDENCE_TOL = 1e-300

#: construction-time minimum allowed distance between two roots
DISTINCT_TOL = 1e-15


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
        _check_distinct(roots)
        roots.setflags(write=False)
        self.roots = roots

    @property
    def n(self):
        return self.roots.size

    def __repr__(self):
        return "RootedPolynomial(n=%d)" % self.n


def _check_distinct(roots):
    # sort by real part; points closer than DISTINCT_TOL in the plane are
    # necessarily that close in real part, so scanning a tiny window of
    # the sorted order suffices (near-linear instead of O(n^2)).
    order = np.argsort(roots.real, kind="stable")
    sr = roots[order]
    n = sr.size
    for i in range(n - 1):
        j = i + 1
        while j < n and sr[j].real - sr[i].real <= DISTINCT_TOL:
            if abs(sr[j] - sr[i]) <= DISTINCT_TOL:
                raise ValueError(
                    "roots %d and %d coincide within %g"
                    % (order[i], order[j], DISTINCT_TOL)
                )
            j += 1


def _keep_indices(n, skip):
    if skip is None:
        return None
    skip = set(int(k) for k in skip)
    for k in skip:
        if k < 0 or k >= n:
            raise IndexError("skip index %d out of range for n=%d" % (k, n))
    return np.array([k for k in range(n) if k not in skip], dtype=np.intp)


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
        inv = 1.0 / diff
        return np.sum(inv, axis=-1), np.sum(inv * inv, axis=-1)


def _diff(poly, z, skip):
    keep = _keep_indices(poly.n, skip)
    roots = poly.roots if keep is None else poly.roots[keep]
    return np.asarray(z, dtype=np.complex128)[..., None] - roots


def _checked_recip_sums(poly, z, skip):
    diff = _diff(poly, z, skip)
    if np.abs(diff).min(initial=np.inf) < COINCIDENCE_TOL:
        raise ValueError("z coincides with a non-skipped root")
    return recip_sums(diff)


def log_abs_p(poly, z, skip=None):
    """log|P(z)| over the non-skipped roots; -inf if z sits on one of them.

    `z` may be a complex scalar or ndarray; the return matches.  With
    skip={k} this is log|P(z)/(z - x_k)|.
    """
    out = log_modulus(_diff(poly, z, skip))
    return out if out.ndim else float(out)


def s_sum(poly, z, skip=None):
    """sum over non-skipped roots of 1/(z - x_k).

    Raises ValueError if z coincides (within COINCIDENCE_TOL) with a
    non-skipped root.
    """
    out = _checked_recip_sums(poly, z, skip)[0]
    return out if out.ndim else complex(out)


def r_sum(poly, z, skip=None):
    """sum over non-skipped roots of 1/(z - x_k)^2 (same guard as s_sum)."""
    out = _checked_recip_sums(poly, z, skip)[1]
    return out if out.ndim else complex(out)


def roots_to_csv(poly, path):
    """Write the root set as one "re,im" line per root."""
    with open(path, "w") as fh:
        for x in poly.roots:
            fh.write("%r,%r\n" % (float(x.real), float(x.imag)))


def roots_from_csv(path):
    """Read a root set written by roots_to_csv."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            re_s, im_s = line.split(",")
            rows.append(complex(float(re_s), float(im_s)))
    return RootedPolynomial(rows)
