"""The conditioned-root event and its two equal expectations.

Draw X_0 and rest-roots X_2..X_n; with S the rest reciprocal sum and Q
the rest product, the event O asks |S(X_0)| < |Q(X_0)|,
|X_0 + 1/S(X_0)| < 1, and X_0 in the thin annulus.  Then

    P(O) = E[ |(X_0 - X_2) S(X_0)|^{-4} ; O ],

an exact identity (an area-preserving change of variables in X_2), and
E[|1 + R/S^2|^2 ; O] equals the expected number of components beyond the
first.  Scaled by sqrt(n), P(O) approaches the component constant.
"""

import math

from lemlab import (
    derive_substream,
    estimate_p_on,
    estimate_p_on_and_mn,
    estimate_t0,
    limit_constant,
)

print("identity P(O) = E[|(X0 - X2) S|^{-4}; O]   (kappa = 1, 10^6 draws)")
for n in (4, 6, 8):
    est = estimate_p_on_and_mn(n, 1.0, 1_000_000, derive_substream(17, n))
    z = abs(est.p_on - est.m_n) / est.diff_se
    print("  n=%d: P(O)=%.6f+-%.6f   M=%.6f+-%.6f   |diff|=%.1f se"
          % (n, est.p_on, est.p_se, est.m_n, est.m_se, z))

print("\nexpected components from the event integrand (kappa = 2 covers the disc):")
t0 = estimate_t0(6, 2.0, 1_000_000, derive_substream(17, 100))
print("  n=6: 1 + E[|1 + R/S^2|^2; O] = %.4f +- %.4f  (median-of-means %.4f)"
      % (1 + t0.mean, t0.se, 1 + t0.mom))

print("\nsqrt(n) P(O) against the limit %.5f:" % limit_constant())
for n in (50, 100, 200, 400):
    p_on, _, _ = estimate_p_on(n, 1.0, 400_000, derive_substream(18, n))
    print("  n=%4d: sqrt(n) P(O) = %.4f" % (n, math.sqrt(n) * p_on))
