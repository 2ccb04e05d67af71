"""Component counting of the unit lemniscate {z : |P(z)| < 1}.

The open set Lambda = {log|P| < 0} has exactly 1 + #{critical points with
log|P(beta)| > 0} connected components (almost surely no critical value
sits on the unit circle, and the maximum principle caps the count at n).
All comparisons happen on the log scale: |P| overflows the double range
for n beyond ~700 while log|P| stays modest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polyeval import log_abs_p
from .rng import sample_disc_array

#: |log|P(beta)|| below this is decided by sign but flagged ambiguous
AMBIGUITY_TOL = 1e-9
#: equally spaced points at which inradius_holds probes its circle
INRADIUS_PROBES = 512


@dataclass
class ComponentReport:
    components: int
    components_annulus: int
    n_crit_outside: int
    crit_log_values: np.ndarray
    ambiguous_indices: np.ndarray

    @property
    def n_ambiguous(self):
        return self.ambiguous_indices.size


def annulus_inner_radius(n, kappa):
    """1 - kappa*sqrt(log n / n); may be <= 0 (annulus covers the disc)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if kappa <= 0:
        raise ValueError("kappa > 0 required")
    return 1.0 - kappa * np.sqrt(np.log(n) / n) if n > 1 else 1.0


def count_components(poly, crit, kappa=2.0):
    """Exact component count from critical values, as a ComponentReport.

    Requires a converged CriticalSet.  Strict comparison at 0 on the log
    scale; ties have probability zero, but values within AMBIGUITY_TOL of
    zero are surfaced through `ambiguous_indices`.
    """
    if not crit.converged:
        raise ValueError("count_components requires a converged CriticalSet")
    vals = log_abs_p(poly, crit.points)
    outside = vals > 0.0
    n_out = int(outside.sum())
    mods = np.abs(crit.points)
    in_ann = (mods > annulus_inner_radius(poly.n, kappa)) & (mods < 1.0)
    return ComponentReport(
        components=1 + n_out,
        components_annulus=1 + int((outside & in_ann).sum()),
        n_crit_outside=n_out,
        crit_log_values=vals,
        ambiguous_indices=np.where(np.abs(vals) < AMBIGUITY_TOL)[0],
    )


def inradius_holds(poly, kappa):
    """True iff log|P| < 0 on the circle of radius 1 - kappa*sqrt(log n/n).

    By the maximum principle, negativity on the circle certifies the whole
    closed disc of that radius sits inside Lambda.  The circle is probed
    at INRADIUS_PROBES equally spaced points.
    """
    radius = annulus_inner_radius(poly.n, kappa)
    if radius <= 0:
        raise ValueError("kappa so large the probed circle has radius <= 0")
    theta = (2.0 * np.pi / INRADIUS_PROBES) * np.arange(INRADIUS_PROBES)
    ring = radius * np.exp(1j * theta)
    return bool(np.max(log_abs_p(poly, ring)) < 0.0)


def area_outside_mc(poly, samples, stream):
    """Monte Carlo area of {z in disc : log|P(z)| > 0}.

    Unbiased: pi times the fraction of uniform disc points falling
    outside the lemniscate.
    """
    if samples < 1:
        raise ValueError("samples >= 1 required")
    pts = sample_disc_array(stream, samples)
    vals = log_abs_p(poly, pts)
    return np.pi * float(np.mean(vals > 0.0))
