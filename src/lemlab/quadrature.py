"""Adaptive composite Gauss-Legendre quadrature.

One scheme, fixed for reproducibility: 16-node Gauss-Legendre panels,
bisected while the Richardson-style error estimate |whole - (left +
right)| exceeds the panel's share of the tolerance budget.  Integrands
are vectorized over node arrays and may return several stacked
components (shape (k, nodes)), which are integrated jointly so e.g.
second and third moments share every function evaluation.
"""

from __future__ import annotations

import numpy as np

_NODES16, _WEIGHTS16 = np.polynomial.legendre.leggauss(16)
#: bisections a panel may take before its failure is an error
MAX_DEPTH = 52


class QuadratureError(RuntimeError):
    """Adaptive refinement exhausted before reaching the tolerance."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


def _panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _NODES16
    y = np.atleast_2d(f(x))
    return half * (y @ _WEIGHTS16)


def adaptive_gauss(f, a, b, tol):
    """Integrate vector-valued f over [a, b] to absolute tolerance tol.

    `tol` may be a scalar or one value per component.  Returns (value,
    error_estimate) as arrays of the component count (or scalars for
    scalar integrands).  Raises QuadratureError when a panel at
    MAX_DEPTH still misses its tolerance share.
    """
    a = float(a)
    b = float(b)
    tol = np.asarray(tol, dtype=np.float64)
    if a == b:
        probe = np.atleast_2d(f(np.array([a])))
        z = np.zeros(probe.shape[0])
        return (z if z.size > 1 else 0.0), (z if z.size > 1 else 0.0)
    whole = _panel(f, a, b)
    ncomp = whole.shape[0]
    value = np.zeros(ncomp)
    err = np.zeros(ncomp)
    length = abs(b - a)
    stack = [(a, b, whole, 0)]
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        fine = left + right
        delta = np.abs(fine - coarse)
        # proportional share of the budget, plus a small absolute floor so
        # panels collapsing into an integrable singularity stop once their
        # contribution is negligible rather than chasing roundoff
        budget = tol * (abs(hi - lo) / length) + 1e-5 * tol
        # a NaN delta meets no budget, so it fails at MAX_DEPTH
        if np.all(delta <= budget):
            value += fine
            err += delta
        elif depth >= MAX_DEPTH:
            raise QuadratureError(
                "panel [%g, %g] failed at depth %d (err %s > %s)"
                % (lo, hi, depth, delta, budget),
                value=fine,
                error=delta,
            )
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    if ncomp == 1:
        return float(value[0]), float(err[0])
    return value, err
