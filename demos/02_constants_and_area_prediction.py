"""The closed-form constants and the uncovered-area prediction.

The expected number of lemniscate components grows like gamma sqrt(n)
with gamma = sqrt((zeta(2) - 1)/pi), and the expected area of the unit
disc left uncovered shrinks like sqrt(pi (zeta(2) - 1)) / sqrt(n).  Both
constants trace back to Var(log|1 - X|) = (pi^2 - 6)/12, which the
package reads from its closed form for E[(log|r - X|)^2] at r = 1, built
on the dilogarithm identity int_0^{2pi} (log|1 - rho e^{i t}|)^2 dt =
pi Li2(rho^2).
"""

import math

from lemlab import (
    area_limit_constant,
    dilog,
    edgeworth_area,
    limit_constant,
    var_log_one_minus_x,
)

print("Li2(1)            = %.10f  (= pi^2/6)" % dilog(1.0))
print("Var(log|1 - X|)   = %.10f  (= (pi^2-6)/12)" % var_log_one_minus_x())
print("component constant= %.10f  (= sqrt((zeta(2)-1)/pi))" % limit_constant())
print("area constant     = %.10f  (= sqrt(pi (zeta(2)-1)))" % area_limit_constant())

print("\nGaussian area prediction 2 pi int (1 - Phi(sqrt n (1-r^2)/(2 sigma))) r dr:")
print("   n        area        sqrt(n) * area")
for n in (100, 400, 1600, 10**4, 10**6):
    val = edgeworth_area(n, kappa=2.0)
    print("  %7d  %.6e   %.6f" % (n, val, math.sqrt(n) * val))
print("sqrt(n) * area -> %.6f as n grows" % area_limit_constant())
