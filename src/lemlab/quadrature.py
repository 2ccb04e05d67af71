"""Adaptive composite Gauss-Legendre quadrature.

One scheme, fixed for reproducibility: 16-node Gauss-Legendre panels,
bisected while the Richardson-style error estimate |whole - (left +
right)| exceeds the panel's share of the tolerance budget.  Integrands
are vectorized: each panel evaluates them once, on its node array.
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
    return half * float(f(mid + half * _NODES16) @ _WEIGHTS16)


def adaptive_gauss(f, a, b, tol):
    """Integrate f over [a, b] to absolute tolerance tol.

    Returns (value, error_estimate).  Raises QuadratureError when a
    panel at MAX_DEPTH still misses its tolerance share.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0, 0.0
    value = err = 0.0
    length = abs(b - a)
    stack = [(a, b, _panel(f, a, b), 0)]
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        fine = left + right
        delta = abs(fine - coarse)
        # proportional share of the budget, plus a small absolute floor so
        # panels collapsing into an integrable singularity stop once their
        # contribution is negligible rather than chasing roundoff
        budget = tol * (abs(hi - lo) / length) + 1e-5 * tol
        # a NaN delta meets no budget, so it fails at MAX_DEPTH
        if delta <= budget:
            value += fine
            err += delta
        elif depth >= MAX_DEPTH:
            raise QuadratureError(
                "panel [%g, %g] failed at depth %d (err %g > %g)"
                % (lo, hi, depth, delta, budget),
                value=fine,
                error=delta,
            )
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return value, err
