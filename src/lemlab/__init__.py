"""lemlab: simulation laboratory for unit-disc random polynomial lemniscates.

The polynomial P(z) = prod (z - X_k) with i.i.d. uniform unit-disc roots
has a unit lemniscate {|P| < 1} whose expected number of connected
components grows like sqrt((zeta(2)-1)/pi) * sqrt(n).  This package
samples the model, counts components exactly through critical values,
cross-checks the count with a pixel component oracle, and estimates the
limiting constants by Monte Carlo against their closed forms.
"""

from .analytic import (
    area_limit_constant,
    dilog,
    edgeworth_area,
    limit_constant,
    moments_log_dist,
    var_log_one_minus_x,
)
from .components import (
    annulus_inner_radius,
    area_outside_mc,
    count_components,
    inradius_holds,
)
from .critical import (
    RootCollisionError,
    find_critical_points,
    pairing_distances,
)
from .harness import (
    ExperimentConfig,
    run_scaling,
    run_simulate,
)
from .heavytail import (
    cdf_y_tail,
    sample_y,
    single_jump_prediction,
    tail_law,
    walk_interval_prob_mc,
)
from .kacrice import (
    epsilon_count,
    estimate_p_on,
    estimate_p_on_and_mn,
    estimate_t0,
)
from .polyeval import RootedPolynomial, log_abs_p
from .raster import mask_component_stats, rasterize, write_ppm
from .rng import RngStream, derive_substream, sample_disc_array

__version__ = "0.1.0"
