"""shiftwalk: verification lab for a shift-register random walk on {0,1}^n.

The walk adds a random bit at a chosen coordinate and then applies the
linear shift map (drop the leading bit, shift, append the word parity).
The package computes exact distance-to-uniform profiles for small n,
spectral upper bounds and weight-statistic lower bounds for large n, and
exposes the middle-coordinate variant as an exact uniform sampler.
"""

__version__ = "0.1.0"

from .chains import (
    AffineState,
    ChainKind,
    DrivingSequence,
    evolve_symbolic,
    q1,
    q2,
    random_driving,
    simulate,
    simulate_random,
    trajectory_rows,
)
from .distribution import (
    MAX_EXACT_N,
    DistributionVector,
    coordinate_marginal,
    evolve_exact,
    exact_tv_curve,
    point_mass,
    tv_to_uniform,
    weight_moments,
)
from .exact_sampler import (
    build_offset,
    exact_sample,
    exact_samples,
    solve_driving,
)
from .gf2 import (
    BitVector,
    GF2Matrix,
    SingularMatrixError,
    companion_matrix,
    companion_power,
    det_gf2,
    mat_pow,
    shift_register,
    solve_linear,
)
from .rng import stream
from .spectral import (
    FourierSummary,
    WeightClassBoundReport,
    check_weight_class_bounds,
    fourier_bruteforce,
    fourier_coeff_closed_form,
    fourier_sum,
    weight_class_term,
)
from .weight_stats import (
    DegenerateWindowError,
    LowerBoundParams,
    ReplayDivergence,
    VarianceReport,
    chebyshev_lower_bound,
    empirical_tv_lower_bound,
    mean_weight_closed_form,
    mean_weight_recursion,
    prob_first_coord_one,
    replay_divergence,
    sample_weights,
    stationary_weight_pmf,
    variance_bound_check,
)

__all__ = [
    "__version__",
    # gf2
    "BitVector", "GF2Matrix", "SingularMatrixError", "shift_register",
    "companion_matrix", "companion_power", "mat_pow", "det_gf2",
    "solve_linear",
    # chains
    "ChainKind", "DrivingSequence", "AffineState", "q1", "q2",
    "simulate", "simulate_random", "random_driving", "evolve_symbolic",
    "trajectory_rows",
    # distribution
    "MAX_EXACT_N", "DistributionVector", "point_mass",
    "evolve_exact", "tv_to_uniform", "weight_moments", "coordinate_marginal",
    "exact_tv_curve",
    # spectral
    "FourierSummary", "WeightClassBoundReport", "weight_class_term",
    "check_weight_class_bounds", "fourier_coeff_closed_form",
    "fourier_bruteforce", "fourier_sum",
    # weight_stats
    "LowerBoundParams", "DegenerateWindowError", "ReplayDivergence",
    "VarianceReport", "mean_weight_closed_form", "mean_weight_recursion",
    "prob_first_coord_one", "replay_divergence", "variance_bound_check",
    "chebyshev_lower_bound", "empirical_tv_lower_bound", "sample_weights",
    "stationary_weight_pmf",
    # exact_sampler
    "build_offset", "exact_sample", "exact_samples", "solve_driving",
    # rng
    "stream",
]
