"""Count lemniscate components two independent ways for one trial.

Route one: solve for all n-1 critical points (zeros of sum 1/(z - x_k)),
and count critical values with log|P| > 0; the component count is one
more than that.  Route two: rasterize {log|P| < 0} and count the
4-connected components of the pixel mask.  The two counts agree except
on vanishingly rare near-ties.
"""

import numpy as np

from lemlab import (
    RootedPolynomial,
    count_components,
    derive_substream,
    find_critical_points,
    mask_component_stats,
    rasterize,
    sample_disc_array,
)

n = 100
stream = derive_substream(7, 0)
poly = RootedPolynomial(sample_disc_array(stream, n))

crit = find_critical_points(poly, stream=stream)
print("solver: %d critical points in %d sweeps, max residual %.2e"
      % (len(crit), crit.iterations, crit.residuals.max()))
print("all inside the closed disc: %s (Gauss-Lucas)"
      % bool(np.abs(crit.points).max() <= 1 + 1e-9))

dist = np.sort(crit.dmin)
print("pairing: median distance to nearest root %.4f vs typical spacing %.4f"
      % (np.median(dist), 1 / np.sqrt(n)))

report = count_components(poly, crit, kappa=2.0)
print("\ncritical-value count: %d components (%d critical values outside)"
      % (report.components, report.n_crit_outside))
print("restricted to the thin annulus: %d" % report.components_annulus)

grid = rasterize(poly, 2048, bound=2.05)
print("pixel count at 2048^2: %d components"
      % mask_component_stats(grid.inside_mask)[0])
