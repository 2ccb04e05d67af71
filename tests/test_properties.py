"""Property tests over randomized inputs (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lemlab.analytic import phi
from lemlab.heavytail import cdf_y_tail, single_jump_prediction, tail_law
from lemlab.polyeval import RootedPolynomial, pair_sums

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def disc_roots(draw, min_n=2, max_n=10):
    n = draw(st.integers(min_n, max_n))
    seeds = draw(
        st.lists(
            st.tuples(st.floats(0.01, 0.97), st.floats(0.0, 1.0)),
            min_size=n, max_size=n, unique=True,
        )
    )
    roots = [r * math.e ** (2j * math.pi * a) for r, a in seeds]
    gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]]
    if min(gaps) < 1e-6:
        roots = [x * (1 + 1e-3 * k) * 0.99 for k, x in enumerate(roots)]
    return roots


@given(disc_roots(), st.floats(1.2, 2.0), st.floats(0.0, 1.0), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_skip_additivity_property(roots, rad, ang, j_raw):
    poly = RootedPolynomial(roots)
    j = j_raw % poly.n
    z = rad * math.e ** (2j * math.pi * ang)
    at = np.array([z])
    (s_rest,), (r_rest,) = pair_sums(at, np.delete(poly.roots, [j]), "S", "R")
    (rhs,), (rr,) = pair_sums(at, poly.roots, "S", "R")
    lhs = s_rest + 1.0 / (z - poly.roots[j])
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    lr = r_rest + 1.0 / (z - poly.roots[j]) ** 2
    assert abs(lr - rr) <= 1e-12 * max(1.0, abs(rr))


@given(st.floats(-8.0, 8.0))
@settings(max_examples=200, deadline=None)
def test_phi_symmetry_property(x):
    assert abs(phi(x) + phi(-x) - 1.0) < 1e-14
    assert phi(x) <= phi(x + 0.125)


@given(st.floats(0.05, 0.95), st.floats(0.0, 30.0), st.floats(0.0, 30.0))
@settings(max_examples=150, deadline=None)
def test_tail_cdf_monotone_property(r, off1, off2):
    law = tail_law(r)
    lo = min(off1, off2)
    hi = max(off1, off2)
    # left tail: CDF nondecreasing toward the cut
    assert cdf_y_tail(r, law.left_cut - hi) <= cdf_y_tail(r, law.left_cut - lo)
    # right tail: nondecreasing away from the cut
    assert cdf_y_tail(r, law.right_cut + lo) <= cdf_y_tail(r, law.right_cut + hi)
    # interval mass is nonnegative and additive in the prediction
    a = law.right_cut + lo
    b = law.right_cut + hi
    p = single_jump_prediction(r, 10, a, b)
    assert p >= 0.0
    mid = 0.5 * (a + b)
    split = single_jump_prediction(r, 10, a, mid) + single_jump_prediction(r, 10, mid, b)
    assert abs(p - split) < 1e-12 * max(1.0, p)
