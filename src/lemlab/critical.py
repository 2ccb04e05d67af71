"""Critical points of P as zeros of the full logarithmic derivative.

For distinct roots, P'(z) = P(z) * Sfull(z) with Sfull(z) = sum 1/(z-x_k),
so the n-1 critical points are the zeros of Sfull away from the roots.
We solve Sfull = 0 with a simultaneous Ehrlich-Aberth style iteration:

    Newton step for P':  N = Sfull / (Sfull^2 - Rfull)
        (P''/P' = (Sfull^2 - Rfull)/Sfull, from P'' = P*(Sfull^2 - Rfull))
    Aberth correction:   w_i = N_i / (1 - N_i * sum_{j != i} 1/(z_i - z_j))

Each root x_k has a critical point nearby: there Sfull(z) = 1/(z - x_k)
+ S_rest(z) with S_rest(x) = sum_{j != k} 1/(x - x_j).  Iterate k starts
at the paired-root Newton point x_k - 1/S_rest(x_k) when that step is
below half of x_k's root gap, else at x_k nudged by 1e-3 * gap at a
pseudo-random angle, so clustered roots do not start in symmetric
deadlock.  All n-1 angles are drawn either way, so the stream advances
alike.  An iterate stops when its update |w| is below
SWEEP_TOL * (1 + |z|) or when its next update, predicted at the observed
contraction as |w|^2 / |w_prev|, is.  Once all have stopped, those
that fail the residual certificate get one more round of sweeps,
restarted with no contraction estimate, within the same MAX_SWEEPS
budget.

The per-point residual certificate is |Sfull(beta)| * min_k |beta - x_k|,
which is scale-free: near a root the sum blows up like 1/distance, so the
product is O(1) at a spurious point and << 1 at a true zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polyeval import close_pair, pair_sums

#: iterate update below this (relative) size counts as converged
SWEEP_TOL = 1e-12
#: residual certificate each accepted point must satisfy
RESIDUAL_TOL = 1e-10
#: slack allowed on |beta| <= 1 (Gauss-Lucas puts all points in the disc)
DISC_SLACK = 1e-9
#: minimum pairwise separation of reported points
SEPARATION_TOL = 1e-12
#: sweeps before a solve that has not converged gives up
MAX_SWEEPS = 120


@dataclass
class CriticalSet:
    """The n-1 critical points with per-point values and diagnostics.

    `dmin` is each point's distance to its nearest root and `log_values`
    its critical value log|P(beta)|, both from the solve's last root-sum
    pass, which also gives the residuals.  `pairs` counts the point-root
    and point-iterate pairs that the solve's root-sum passes evaluated.
    """

    points: np.ndarray
    dmin: np.ndarray
    log_values: np.ndarray
    residuals: np.ndarray
    iterations: int
    converged: bool
    pairs: int = 0

    def __len__(self):
        return self.points.size


def _nudge(roots, gaps, idx, stream):
    """roots[idx], each moved 1e-3 * gaps[idx] at an angle from `stream`."""
    angles = (2.0 * np.pi) * stream.uniforms(idx.size)
    return roots[idx] + 1e-3 * gaps[idx] * np.exp(1j * angles)


def find_critical_points(poly, stream):
    """All n-1 zeros of Sfull via the collective Aberth iteration.

    `stream` supplies the n-1 start angles.  Returns a CriticalSet, and
    never raises on a hard solve: converged=False (with partial
    diagnostics) when an iterate is still moving after MAX_SWEEPS sweeps
    or some residual exceeds RESIDUAL_TOL.
    """
    roots = poly.roots
    n = poly.n
    # root gaps and S_rest(x_k) = sum_{j != k} 1/(x_k - x_j)
    gaps, s_rest = pair_sums(roots, roots, "dmin", "S", skip=np.arange(n))
    pairs = n * n
    m = n - 1
    z = _nudge(roots, gaps, np.arange(m), stream)
    paired = np.flatnonzero(np.abs(s_rest[:m]) * gaps[:m] > 2.0)  # |1/S_rest| < gap/2
    z[paired] = roots[paired] - 1.0 / s_rest[paired]
    active = np.ones(m, dtype=bool)
    prev_step = np.zeros(m)  # |w| of the last sweep; 0 before the first
    sweeps = 0

    for attempt in range(2):
        while sweeps < MAX_SWEEPS:
            idx = np.flatnonzero(active)
            if not idx.size:
                break
            sweeps += 1
            za = z[idx]
            dmin, S, R = pair_sums(za, roots, "dmin", "S", "R")
            pairs += idx.size * n
            (A,) = pair_sums(za, z, "S", skip=idx)  # sum_{j != i} 1/(z_i - z_j)
            pairs += idx.size * m
            with np.errstate(divide="ignore", invalid="ignore"):
                N = S / (S * S - R)
                w = N / (1.0 - N * A)
            # an iterate on a root has non-finite S and R there, so w is not
            # finite; this bounded step moves it off the root
            badw = ~np.isfinite(w)
            if badw.any():
                w = np.where(badw, 0.05 * np.exp(1j * 0.7) * (dmin + 1e-6), w)
            # cap the step at a fraction of the disc so a degenerate
            # denominator cannot fling an iterate far away
            aw = np.abs(w)
            big = aw > 0.25
            if big.any():
                w = np.where(big, w * (0.25 / np.where(big, aw, 1.0)), w)

            z2 = za - w
            z[idx] = z2
            aw = np.abs(w)
            tol = SWEEP_TOL * (1.0 + np.abs(z2))
            # stop on this step, or on the next one predicted at the observed
            # contraction |w| / |w_prev| (never, while prev_step is 0)
            done = (aw < tol) | (aw * aw < tol * prev_step[idx])
            prev_step[idx] = aw
            active[idx[done]] = False

        dmin, S, log_values = pair_sums(z, roots, "dmin", "S", "log")
        pairs += m * n
        residuals = np.abs(S) * dmin
        # the predicted stop can come early: such iterates sweep on, once
        redo = residuals >= RESIDUAL_TOL
        if attempt or sweeps == MAX_SWEEPS or not redo.any():
            break
        active = redo
        prev_step[redo] = 0.0
    converged = bool(np.all(residuals < RESIDUAL_TOL)) and not active.any()
    crit = CriticalSet(points=z, dmin=dmin, log_values=log_values, residuals=residuals,
                       iterations=sweeps, converged=converged, pairs=pairs)
    if converged:
        _validate(crit)
    return crit


def _validate(crit):
    pts = crit.points
    # close_pair tests <= tol; the largest double below SEPARATION_TOL
    # makes that the strict < SEPARATION_TOL
    if close_pair(pts, np.nextafter(SEPARATION_TOL, 0.0)) is not None:
        crit.converged = False
        return
    if np.abs(pts).max(initial=0.0) > 1.0 + DISC_SLACK:
        crit.converged = False
