"""The heavy-tailed walk W_n(r) = sum of Y_k(r) = r - Re(1/(r - X_k)).

The increments have Pareto-type tails with exact closed forms outside a
compact middle interval:

    P(Y <= t) = 1/(4(r-t)^2)          for t <= r - 1/(1+r)
    P(Y <= t) = 1 - 1/(4(r-t)^2)      for t >= r + 1/(1-r)

(the sublevel/superlevel sets of y = r - Re(1/(r-x)) are discs that fall
entirely inside the unit disc exactly beyond those cut points).  The
middle interval is an intersection-of-discs area with no tidy closed
form, and nothing here needs it.

The tails decay like t^-2, so the variance is infinite and the walk
spreads like sqrt(n log n).  Once a threshold lies far beyond that
spread, the walk lands in [a, b] essentially only through a single big
increment, and interval probabilities obey the single-big-jump
asymptote

    P(W_n in [a, b]) ~ n * [1/(4(a-r)^2) - 1/(4(b-r)^2)],  a >> sqrt(n log n)

(Denisov, Dieker and Shneer, Ann. Probab. 2008).  The right cut only
marks where the formula is defined; it is not where it becomes
accurate.  Against the exact law at n = 200, r = 0.9 (sqrt(n log n) is
about 33), the formula is 37.4% low on [100, 110], 8.1% low on
[200, 300] and 2.0% low on [500, 550]: the rest of the walk still
moves the mass at a = 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rng import sample_disc_array

#: chunk size for vectorized Monte Carlo over walks
_CHUNK = 250_000


class MiddleRangeUnsupported(ValueError):
    """Closed-form CDF requested inside the uncomputed middle interval."""


@dataclass(frozen=True)
class TailLaw:
    """Cut points bracketing the closed-form tails of Y(r)."""

    r: float
    left_cut: float
    right_cut: float


def tail_law(r):
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    return TailLaw(r=r, left_cut=r - 1.0 / (1.0 + r), right_cut=r + 1.0 / (1.0 - r))


def sample_y(r, stream, count):
    """Draw `count` increments Y = r - Re(1/(r - X)), X uniform on the disc.

    Returns an ndarray of length `count`.  An exact collision X == r has
    probability zero; if it ever occurs the point is redrawn.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    x = sample_disc_array(stream, count)
    bad = x == r
    while bad.any():
        x[bad] = sample_disc_array(stream, int(bad.sum()))
        bad = x == r
    return r - (1.0 / (r - x)).real


def cdf_y_tail(r, t):
    """Exact CDF of Y(r) at t, valid only in the closed-form tail ranges."""
    law = tail_law(r)
    if t <= law.left_cut:
        return 1.0 / (4.0 * (r - t) ** 2)
    if t >= law.right_cut:
        return 1.0 - 1.0 / (4.0 * (r - t) ** 2)
    raise MiddleRangeUnsupported(
        "t=%g lies in the uncomputed middle range (%g, %g)"
        % (t, law.left_cut, law.right_cut)
    )


def single_jump_prediction(r, n, a, b):
    """n * [1/(4(a-r)^2) - 1/(4(b-r)^2)]: the one-big-increment asymptote
    of P(W_n(r) in [a, b]).

    Defined for a at or beyond the right cut, but accurate only for a
    much larger than the walk spread sqrt(n log n).  At n = 200,
    r = 0.9 the exact law lies 37.4% above it on [100, 110], 8.1% on
    [200, 300] and 2.0% on [500, 550].
    """
    law = tail_law(r)
    if a < law.right_cut:
        raise ValueError("a=%g is below the right cut %g" % (a, law.right_cut))
    if b < a:
        raise ValueError("need a <= b")
    return n * (1.0 / (4.0 * (a - r) ** 2) - 1.0 / (4.0 * (b - r) ** 2))


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    se: float


def walk_interval_prob_mc(r, n, a, b, trials, stream):
    """Monte Carlo P(W_n(r) in [a, b]) with its binomial standard error.

    The increments come from `sample_y`, n per walk in draw order.
    """
    if b < a:
        raise ValueError("need a <= b")
    if n < 1 or trials < 1:
        raise ValueError("n >= 1 and trials >= 1 required")
    hits = 0
    done = 0
    while done < trials:
        k = min(_CHUNK // n + 1, trials - done)
        w = sample_y(r, stream, k * n).reshape(k, n).sum(axis=1)
        hits += int(((w >= a) & (w <= b)).sum())
        done += k
    p = hits / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return McEstimate(estimate=p, se=se)
