"""Critical points of P as zeros of the full logarithmic derivative.

For distinct roots, P'(z) = P(z) * Sfull(z) with Sfull(z) = sum 1/(z-x_k),
so the n-1 critical points are the zeros of Sfull away from the roots.
We solve Sfull = 0 with a simultaneous Ehrlich-Aberth style iteration:

    Newton step for P':  N = Sfull / (Sfull^2 - Rfull)
        (P''/P' = (Sfull^2 - Rfull)/Sfull, from P'' = P*(Sfull^2 - Rfull))
    Aberth correction:   w_i = N_i / (1 - N_i * sum_{j != i} 1/(z_i - z_j))

Iterates start next to the roots (each root has a nearby critical point),
displaced by a deterministic pseudo-random perturbation so clustered
configurations do not start in symmetric deadlock.

The per-point residual certificate is |Sfull(beta)| * min_k |beta - x_k|,
which is scale-free: near a root the sum blows up like 1/distance, so the
product is O(1) at a spurious point and << 1 at a true zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polyeval import recip_sums
from .rng import RngStream

#: iterate update below this (relative) size counts as converged
SWEEP_TOL = 1e-12
#: residual certificate each accepted point must satisfy
RESIDUAL_TOL = 1e-10
#: slack allowed on |beta| <= 1 (Gauss-Lucas puts all points in the disc)
DISC_SLACK = 1e-9
#: minimum pairwise separation of reported points
SEPARATION_TOL = 1e-12
#: iterate-on-root detection distance
COLLISION_TOL = 1e-14

MAX_RESTARTS = 5


class RootCollisionError(RuntimeError):
    """An iterate kept landing on a root of P even after restarts."""


@dataclass
class CriticalSet:
    """The n-1 critical points with per-point convergence diagnostics."""

    points: np.ndarray
    residuals: np.ndarray
    iterations: int
    converged: bool

    def __len__(self):
        return self.points.size


def _nearest_gaps(pts):
    """Distance from each point to its nearest other, 512 rows at a time."""
    m = pts.size
    block = 512
    gaps = np.empty(m)
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        d = np.abs(pts[lo:hi, None] - pts[None, :])
        d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        gaps[lo:hi] = d.min(axis=1)
    return gaps


def initial_guesses(poly, stream):
    """Start points: roots x_1..x_{n-1}, each nudged by 1e-3 * gap.

    The nudge direction is a deterministic pseudo-random angle drawn from
    `stream` (one uniform per point); the magnitude 1e-3 * (distance to
    the nearest other root) keeps every guess well inside its own root's
    basin while breaking any symmetry.
    """
    n = poly.n
    if n < 2:
        raise ValueError("need n >= 2 roots for critical points")
    gaps = _nearest_gaps(poly.roots)
    m = n - 1
    angles = (2.0 * np.pi) * stream.uniforms(m)
    return poly.roots[:m] + 1e-3 * gaps[:m] * np.exp(1j * angles)


def find_critical_points(poly, max_iters=120, tol=RESIDUAL_TOL, stream=None,
                         sweep_tol=SWEEP_TOL):
    """All n-1 zeros of Sfull via the collective Aberth iteration.

    Returns a CriticalSet; converged=False (with partial diagnostics)
    when some residual still exceeds `tol` after `max_iters` sweeps.
    Raises RootCollisionError if an iterate sits on a root of P for three
    consecutive sweeps and five perturbed restarts do not cure it.
    """
    roots = poly.roots
    n = poly.n
    if n < 2:
        return CriticalSet(
            points=np.empty(0, dtype=np.complex128),
            residuals=np.empty(0),
            iterations=0,
            converged=True,
        )
    if stream is None:
        stream = RngStream(0, 0)
    gaps = _nearest_gaps(roots)
    m = n - 1
    z = initial_guesses(poly, stream)
    active = np.ones(m, dtype=bool)
    collide_streak = np.zeros(m, dtype=np.int64)
    restarts = np.zeros(m, dtype=np.int64)
    sweeps = 0

    for _ in range(max_iters):
        if not active.any():
            break
        sweeps += 1
        za = z[active]
        diff = za[:, None] - roots[None, :]
        dmin = np.abs(diff).min(axis=1)

        hit = dmin < COLLISION_TOL
        if hit.any():
            idx = np.where(active)[0]
            collide_streak[idx[hit]] += 1
            collide_streak[idx[~hit]] = 0
            bad = collide_streak[idx] >= 3
            if bad.any():
                which = idx[bad]
                if np.any(restarts[which] + 1 > MAX_RESTARTS):
                    raise RootCollisionError(
                        "iterate stuck on a root after %d restarts" % MAX_RESTARTS
                    )
                restarts[which] += 1
                k = which.size
                angles = (2.0 * np.pi) * stream.uniforms(k)
                near = np.argmin(np.abs(z[which][:, None] - roots[None, :]), axis=1)
                z[which] = roots[near] + 1e-3 * gaps[near] * np.exp(1j * angles)
                collide_streak[which] = 0
                continue
        else:
            collide_streak[active] = 0

        S, R = recip_sums(diff)
        with np.errstate(divide="ignore", invalid="ignore"):
            N = S / (S * S - R)
            pd = za[:, None] - z[None, :]
            pd[pd == 0] = np.inf
            A = np.sum(1.0 / pd, axis=1)
            w = N / (1.0 - N * A)
        # guard rare degenerate denominators: fall back to a bounded step
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
        z[active] = z2
        done = np.abs(w) < sweep_tol * (1.0 + np.abs(z2))
        idx = np.where(active)[0]
        active[idx[done]] = False

    diff = z[:, None] - roots[None, :]
    S, _ = recip_sums(diff)
    residuals = np.abs(S) * np.abs(diff).min(axis=1)
    converged = bool(np.all(residuals < tol)) and not active.any()
    crit = CriticalSet(points=z, residuals=residuals,
                       iterations=sweeps, converged=converged)
    if converged:
        _validate(crit)
    return crit


def _validate(crit):
    pts = crit.points
    if pts.size > 1 and _nearest_gaps(pts).min() < SEPARATION_TOL:
        crit.converged = False
        return
    if np.abs(pts).max(initial=0.0) > 1.0 + DISC_SLACK:
        crit.converged = False


def pairing_distances(poly, crit):
    """Distance from each critical point to its nearest root, ascending."""
    if not crit.converged:
        raise ValueError("pairing_distances requires a converged CriticalSet")
    if len(crit) == 0:
        return np.empty(0)
    d = np.abs(crit.points[:, None] - poly.roots[None, :])
    return np.sort(d.min(axis=1))
