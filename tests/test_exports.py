import ast
import importlib
from pathlib import Path

import shiftwalk
from shiftwalk import (
    chains,
    distribution,
    exact_sampler,
    gf2,
    rng,
    spectral,
    suites,
    weight_stats,
)

EXPORTS = [
    "AffineState", "BitVector", "ChainKind",
    "DistributionVector", "DrivingSequence", "FourierSummary", "GF2Matrix",
    "MAX_EXACT_N", "ReplayDivergence",
    "SingularMatrixError", "VarianceReport", "WeightClassBoundReport",
    "__version__", "build_offset", "chebyshev_window",
    "check_weight_class_bounds", "companion_matrix", "coordinate_marginal",
    "det_gf2", "empirical_tv_lower_bound",
    "evolve_exact", "evolve_symbolic", "exact_sample",
    "exact_tv_curve", "fourier_bruteforce", "fourier_coeff_closed_form",
    "fourier_sum", "mat_pow", "mean_weight_closed_form",
    "mean_weight_recursion", "point_mass", "prob_first_coord_one", "q1", "q2",
    "random_driving", "replay_divergence", "sample_weights", "shift_register",
    "simulate", "solve_driving", "solve_linear",
    "stationary_weight_pmf", "stream",
    "tv_to_uniform", "variance_bound_check", "weight_class_term",
    "weight_moments",
]


def test_exports_are_pinned_and_owned():
    assert sorted(shiftwalk.__all__) == EXPORTS
    modules = (gf2, chains, distribution, spectral, weight_stats, exact_sampler, rng)
    for name in EXPORTS:
        if name == "__version__":
            continue
        owners = [m for m in modules if name in m.__all__]
        assert len(owners) == 1, (name, owners)
        assert getattr(owners[0], name) is getattr(shiftwalk, name), name


def test_package_all_is_the_modules_all_lists():
    modules = (gf2, chains, distribution, spectral, weight_stats, exact_sampler, rng)
    joined = [name for m in modules for name in m.__all__]
    assert shiftwalk.__all__ == ["__version__", *joined]
    assert len(set(joined)) == len(joined)


def test_traced_benchmark_names_resolve():
    # perfbench/tracing.py wraps shiftwalk functions by name; read its tables
    # as source, so a renamed layer fails here rather than in a traced run.
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tables = {
        node.targets[0].id: node.value
        for node in ast.parse(source.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    layers = [ast.literal_eval(value) for value in tables["LAYERS"].values]
    assert ("chains", "_draw_driving_arrays") in layers
    assert ("weight_stats", "replay_divergence") in layers
    for module, attribute in layers:
        target = getattr(importlib.import_module(f"shiftwalk.{module}"), attribute, None)
        assert callable(target), (module, attribute)
    assert list(ast.literal_eval(tables["SUITES"])) == list(suites.SUITES)
