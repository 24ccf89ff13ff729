import dataclasses
import os
import subprocess
import sys
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
    "fresnel_unitary", "joint4_tensor", "make_grid", "marginal_p",
    "marginal_x", "mix", "operator_dirac", "pure_from_samples", "purity",
    "random_density_matrix", "reconstruct_density",
    "sample_counts", "scan",
    "wedge_gradient_from_angle",
}


def test_public_api_is_pinned():
    names = {name for name in dir(diracsim) if not name.startswith("_")
             and not isinstance(getattr(diracsim, name), types.ModuleType)}
    assert names == PUBLIC
    for oracle in ("analytic_kernel_term", "joint4", "phase_averaged_bench_state"):
        assert not hasattr(bayesprop, oracle) and not hasattr(qstate, oracle)


# The public members of the package's state and distribution types.  A
# member that only the tests use (such as the analytic kernel's lens) lives
# in conftest.py and must not come back here.
MEMBERS = {
    diracsim.DensityMatrix: {"grid", "rho", "validate"},
    diracsim.DiracDistribution: {"grid", "d", "validate"},
    diracsim.PropagatedDistribution: {"grid", "dz", "e", "kind", "validate"},
    diracsim.PropagatorKernel: {"grid", "dz", "kind", "v", "row", "k_basis"},
}


def test_public_members_are_pinned():
    for cls, members in MEMBERS.items():
        names = {name for name in dir(cls) if not name.startswith("_")}
        names |= {f.name for f in dataclasses.fields(cls) if not f.name.startswith("_")}
        assert names == members, cls.__name__


def test_a_kernels_settable_fields_are_its_data():
    """``kind`` follows from which of ``v`` and ``row`` is set, so it is a
    property and not a field that a caller could set against the data."""
    assert [f.name for f in dataclasses.fields(diracsim.PropagatorKernel)] == [
        "grid", "dz", "v", "row"]
    assert isinstance(diracsim.PropagatorKernel.kind, property)


def test_importing_the_cli_loads_no_hashlib():
    """``fileio`` imports ``hashlib`` only when it hashes: loading OpenSSL at
    import costs every process about 3.5 MB of RSS."""
    code = ("import importlib.util, sys, diracsim, diracsim.cli; "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)), "
            "importlib.util.find_spec('diracsim._twin'))")
    src = os.path.dirname(os.path.dirname(diracsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.split() == ["[]", "None"]
