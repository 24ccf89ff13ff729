import types

import diracsim
from diracsim import bayesprop, qstate

# The package's public names.  Brute-force oracles that only the tests use
# (analytic_kernel_term, joint4, phase_averaged_bench_state) live in
# conftest.py and must not come back here.
PUBLIC = {
    "BenchConfig", "ConfigError", "ContractError", "DegenerateInputError",
    "DegenerateKernelError", "DensityMatrix", "DiracDistribution", "DiracsimError",
    "EstimatorCalibration", "FormatError", "Grid", "KIND_ANALYTIC", "KIND_UNITARY",
    "NoPhotonsError", "NullEventError", "NumericalIntegrityError",
    "PropagatedDistribution", "PropagatorKernel", "PureState", "UnitMap",
    "backaction_offset", "bayes_propagate", "bench_pure_state", "build_bench_state",
    "build_kernel_analytic", "build_kernel_unitary", "calibrate_estimator",
    "conditional_x_given_p", "correct_diagonals", "default_calibration",
    "density_from_pure", "dirac_distribution", "direct_measure_displaced",
    "estimate_dirac_column", "expectation_overlap",
    "fresnel_unitary", "from_momentum", "joint4_tensor", "make_grid", "marginal_p",
    "marginal_x", "mix", "operator_dirac", "overlap", "pure_from_samples", "purity",
    "random_density_matrix", "readout_intensities", "reconstruct_density",
    "sample_counts", "scan", "to_momentum",
    "wedge_gradient_from_angle",
}


def test_public_api_is_pinned():
    names = {name for name in dir(diracsim) if not name.startswith("_")
             and not isinstance(getattr(diracsim, name), types.ModuleType)}
    assert names == PUBLIC
    for oracle in ("analytic_kernel_term", "joint4", "phase_averaged_bench_state"):
        assert not hasattr(bayesprop, oracle) and not hasattr(qstate, oracle)
