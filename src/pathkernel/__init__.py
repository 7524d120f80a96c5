"""Heat-kernel path sampling and Feynman-Kac estimation on model manifolds.

The package samples Brownian paths and bridges from exact transition
densities on flat space, hyperbolic 3-space, flat tori and circles, and
the absorbing interval (with its one-point compactification), and
estimates Schrodinger semigroups along those paths.  Every stochastic
result is reproducible: samples live on counter-based substreams
addressed by (seed, sample index), independent of worker partitioning.
"""

from .diagnostics import (
    CompletenessReport,
    HolderReport,
    brownian_dyadic_ensemble,
    completeness_check,
    curve_to_csv,
    distance_curve,
    expected_distance_analytic,
    expected_distance_mc,
    holder_exponent,
    linear_dyadic_levels,
    max_increment_stat,
    strided_dyadic_ensemble,
)
from .errors import (
    DivergentIntegralError,
    NonFiniteSampleError,
    PathkernelError,
    PotentialBoundError,
    QuadratureError,
    StepTooLargeError,
)
from .feynman_kac import (
    CoveringSumReport,
    EstimateWithError,
    FKProblem,
    MonotonicityReport,
    Potential,
    SpectralOracle,
    cos_potential,
    const_potential,
    constant_one,
    fk_covering_sum_check,
    fk_expectation,
    fk_kernel,
    fk_monotonicity_check,
    lifted_potential,
    spectral_oracle,
    step_potential,
    zero_potential,
)
from .heat_kernel import (
    MomentCheckConfig,
    MomentReport,
    TransitionKernel,
    TruncationPolicy,
    chapman_kolmogorov_residual,
    delta_family_residuals,
    dirichlet_mass_series,
    eval_compactified,
    evaluate,
    moment_check,
    total_mass,
)
from .manifold import (
    CEMETERY,
    Circle,
    Compactified,
    CoveringDescriptor,
    DirichletInterval,
    Euclidean,
    FlatTorus,
    Hyperbolic3,
    Point,
    covering_of,
    distance,
    exp_point,
    lift_point_near,
    point,
    project_point,
)
from .path_sampler import (
    Path,
    PathEnsemble,
    TimeGrid,
    bridge_total_mass,
    lift_path,
    path_to_csv,
    project_path,
    sample_bridge,
    sample_bridges,
    sample_path,
    sample_paths,
)
from .rng import RngContract

__version__ = "0.1.0"
