"""Dirac (standard-ordered Kirkwood) quasi-probability toolkit.

Compute the distribution of discretized quantum states, simulate its direct
weak-measurement on an optical bench, reconstruct density matrices with
back-action correction, and propagate the distribution between detection
planes by Bayes' theorem.
"""

from .errors import (ConfigError, ContractError, DegenerateInputError,
                     DegenerateKernelError, DiracsimError, FormatError,
                     NoPhotonsError, NullEventError, NumericalIntegrityError)
from .lattice import Grid, UnitMap, from_momentum, make_grid, overlap, to_momentum
from .qstate import (BenchConfig, DensityMatrix, PureState, bench_pure_state,
                     build_bench_state, density_from_pure, mix, pure_from_samples,
                     random_density_matrix, wedge_gradient_from_angle)
from .dirac import (DiracDistribution, conditional_x_given_p, dirac_distribution,
                    expectation_overlap, marginal_p, marginal_x, operator_dirac,
                    purity, reconstruct_density)
from .weaksim import (EstimatorCalibration, backaction_offset, calibrate_estimator,
                      correct_diagonals, default_calibration, estimate_dirac_column,
                      readout_intensities, sample_counts, scan)
from .bayesprop import (KIND_ANALYTIC, KIND_UNITARY, PropagatedDistribution,
                        PropagatorKernel, bayes_propagate, build_kernel_analytic,
                        build_kernel_unitary, direct_measure_displaced,
                        fresnel_unitary, joint4_tensor)

__version__ = "0.1.0"
