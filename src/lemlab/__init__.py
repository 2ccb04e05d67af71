"""lemlab: simulation laboratory for unit-disc random polynomial lemniscates.

The polynomial P(z) = prod (z - X_k) with i.i.d. uniform unit-disc roots
has a unit lemniscate {|P| < 1} whose expected number of connected
components grows like sqrt((zeta(2)-1)/pi) * sqrt(n).  This package
samples the model, counts components exactly through critical values,
cross-checks the count with a pixel flood-fill oracle, and estimates the
limiting constants by Monte Carlo against their closed forms.
"""

from .analytic import (
    MomentTable,
    area_limit_constant,
    dilog,
    edgeworth_area,
    limit_constant,
    moments_log_dist,
    phi,
    var_log_one_minus_x,
)
from .components import (
    ComponentReport,
    annulus_inner_radius,
    area_outside_mc,
    count_components,
    count_components_annulus,
    inradius_holds,
)
from .critical import (
    CriticalSet,
    RootCollisionError,
    find_critical_points,
    initial_guesses,
    pairing_distances,
)
from .harness import (
    ExperimentConfig,
    SummaryAccumulator,
    TrialRecord,
    run_scaling,
    run_simulate,
)
from .heavytail import (
    MiddleRangeUnsupported,
    TailLaw,
    cdf_y_tail,
    median_of_means,
    sample_y,
    single_jump_prediction,
    tail_law,
    walk_interval_prob_mc,
)
from .kacrice import (
    OnSample,
    epsilon_count,
    estimate_p_on_and_mn,
    estimate_t0,
    sample_on_event,
)
from .polyeval import (
    RootedPolynomial,
    log_abs_p,
    r_sum,
    roots_from_csv,
    roots_to_csv,
    s_sum,
)
from .raster import RasterGrid, flood_count, rasterize, write_ppm
from .rng import DiscPoint, RngStream, derive_substream, sample_disc_array, sample_unit_disc

__version__ = "0.1.0"
