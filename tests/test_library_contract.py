"""The library's error contract, swept over edge values, wrong shapes and
mismatched grids.

Each slot of ``_SLOTS`` calls one public function with one numeric
parameter, or every entry of one array it takes, set to each value of
``_VALUES``, or of ``_DZ_VALUES`` for a float scalar and ``_INT_VALUES`` for
an integer.  Each call must return or raise a ``DiracsimError``: any other
exception fails, and so does a warning, which the sweep turns into an error.
A distribution built from nan or inf is outside the contract (the types
check shape and dtype, not finiteness), so the slots that pass a distribution filled
with the value take the finite values only.  Each slot of ``_REFUSED``
passes a wrong shape, a mismatched grid, an index out of range, counts that
are not an array of integers or floats or a kernel built directly that
breaks its builders' checks, and must raise a
``DiracsimError``.  Each slot of ``_ARRAY_SLOTS`` passes one array a
public function takes, or builds one of the four grid-bound types and
calls one consumer of it: each form of ``_NOT_ARRAYS`` (numbers that numpy
cannot read or whose dtype is not a number's) must raise a
``DiracsimError`` and write nothing, and each form of ``_NUMBER_ARRAYS``
must return or raise one.  Each slot of ``_FLAG_SLOTS`` must take a Python
or numpy bool and refuse anything else with a ``ConfigError``, and each
float slot of ``_SLOTS`` must refuse a bool.  Each case of
``_NOT_CONTAINERS`` passes a container slot something that is not the
sequence it takes, and must raise a ``ContractError`` before any other
check.  A ``PropagatedDistribution`` built directly must refuse the dz
values a ``PropagatorKernel`` refuses, with the same error, hold the same
float for every other one, and refuse a ``kind`` that is not a ``str``.
The cases are fixed, so the run is derandomised.
"""

import math
import re
import warnings

import numpy as np
import pytest

from diracsim import (BenchConfig, ConfigError, ContractError, DensityMatrix, DiracDistribution,
                      DiracsimError, Grid, PropagatedDistribution, PropagatorKernel, PureState,
                      UnitMap, bayes_propagate, backaction_offset, build_bench_state,
                      build_kernel_analytic, build_kernel_unitary, conditional_x_given_p,
                      correct_diagonals, density_from_pure, direct_measure_displaced,
                      estimate_dirac_column, expectation_overlap, fresnel_unitary,
                      joint4_tensor, make_grid, marginal_p, marginal_x, mix, operator_dirac,
                      pure_from_samples, purity, random_density_matrix, reconstruct_density,
                      sample_counts, scan, wedge_gradient_from_angle, dirac_distribution)
from diracsim.fileio import write_counts, write_matrix

LARGEST = np.finfo(float).max  # a numpy scalar, so numpy's scalar arithmetic is swept too
_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, LARGEST]
_FINITE = [v for v in _VALUES if math.isfinite(v)]
# every float scalar is read as ``float`` reads it, so one is also swept with values
# that ``float`` refuses and with a numeric string, which must act as its number
_DZ_VALUES = _VALUES + ["a", None, [1], 10 ** 400, "0.25"]
# every integer must be an int or a numpy integer, not a bool: no float, string or
# None, however integral, and an int past int64 must be refused or used as itself
_INT_VALUES = _VALUES + ["a", None, True, 1.5, "3", 10 ** 400, np.int64(3)]

N = 8
UM = UnitMap(wavelength=780e-9, focal_length=1.0, magnification=4.935)
GRID = make_grid(N, 44e-3 / N, 22e-3, UM)
OTHER = make_grid(N, 44e-3 / N, 0.0, UM)
BENCH = BenchConfig(aperture_halfwidth=22e-3, edge_position=25e-3)
RHO = build_bench_state(BENCH, GRID)
DIST = dirac_distribution(RHO)
CHIRP = build_kernel_unitary(GRID, fresnel_unitary(GRID, 0.084), 0.084)
ROW = build_kernel_analytic(GRID, 0.084).row  # the real generator, cut or extended below
DENSE = build_kernel_unitary(GRID, np.diag(fresnel_unitary(GRID, 0.084)), 0.084)
# the lattice on which a wedge_tilt of LARGEST makes the bench phase overflow
PHASE_GRID = make_grid(16, 1.0, 0.0, UM)
PHASE_BENCH = dict(aperture_halfwidth=8.0, edge_position=0.0)


def _full(shape, v):
    return np.full(shape, v, dtype=complex)


def _density(v, *where):
    """RHO with each of ``where`` (an index and the factor of v) set."""
    rho = RHO.rho.copy()
    for index, factor in where:
        rho[index] = factor * v
    return DensityMatrix(grid=GRID, rho=rho)


def _counts(v):
    """Four analyzers' counts of two slivers, all v."""
    return np.full((4, 2, N), v)


def _finite(x):
    if not math.isfinite(x):
        raise AssertionError(f"returned {x}")


def _positive(x):
    if not 0 < x < math.inf:
        raise AssertionError(f"returned {x}")


def _scan_config(**changes):
    return BenchConfig(aperture_halfwidth=22e-3, edge_position=25e-3,
                       **{"photon_budget": 1e4, **changes})


_BENCH_FIELDS = ["aperture_halfwidth", "edge_position", "static_phase_step", "wedge_tilt",
                 "edge_loss", "phi", "photon_budget"]
_UNIT_FIELDS = ["wavelength", "focal_length", "magnification"]

# each function of a DiracDistribution, by name
_OF_A_DISTRIBUTION = {
    "reconstruct_density": reconstruct_density,
    "marginal_x": marginal_x,
    "marginal_p": marginal_p,
    "purity": purity,
    "DiracDistribution.validate": lambda d: d.validate(),
    "expectation_overlap": lambda d: expectation_overlap(d, d),
    "conditional_x_given_p": lambda d: conditional_x_given_p(d, 0),
    "bayes_propagate through a chirp": lambda d: bayes_propagate(d, CHIRP),
    "bayes_propagate through a dense V": lambda d: bayes_propagate(d, DENSE),
}

# slot name: (values, call with one value)
_SLOTS = {
    "make_grid n": (_INT_VALUES, lambda v: make_grid(v, 1.0)),
    "make_grid dx": (_DZ_VALUES, lambda v: make_grid(16, v)),
    "make_grid x0": (_DZ_VALUES, lambda v: make_grid(16, 1.0, v)),
    **{f"UnitMap {key}": (_DZ_VALUES, lambda v, key=key: make_grid(
        16, 1e-3, 0.0, UnitMap(**{"wavelength": 780e-9, "focal_length": 1.0,
                                  "magnification": 1.0, key: v})))
       for key in _UNIT_FIELDS},
    **{f"build_bench_state {key}": (_DZ_VALUES, lambda v, key=key: build_bench_state(
        BenchConfig(**{**PHASE_BENCH, key: v}), PHASE_GRID)) for key in _BENCH_FIELDS},
    # a gradient that returns must be finite, and positive for a positive angle
    "wedge_gradient_from_angle angle": (
        _DZ_VALUES, lambda v: _finite(wedge_gradient_from_angle(v, 780e-9))),
    "wedge_gradient_from_angle wavelength": (
        _DZ_VALUES, lambda v: _positive(wedge_gradient_from_angle(0.01, v))),
    "wedge_gradient_from_angle glass_index": (
        _DZ_VALUES, lambda v: _finite(wedge_gradient_from_angle(0.01, 780e-9, v))),
    "pure_from_samples raw": (_VALUES, lambda v: pure_from_samples(GRID, _full(N, v))),
    "DensityMatrix.validate diagonal": (
        _VALUES, lambda v: _density(v, *(((m, m), 1) for m in range(N))).validate()),
    "DensityMatrix.validate anti-Hermitian pair": (
        _VALUES, lambda v: _density(v, ((0, 1), 1), ((1, 0), -1)).validate()),
    "DensityMatrix.validate Hermitian pair": (
        _VALUES, lambda v: _density(v, ((0, 1), 1), ((1, 0), 1)).validate()),
    "mix weight": (_DZ_VALUES, lambda v: mix([(RHO, v)])),
    "random_density_matrix rank": (
        _INT_VALUES, lambda v: random_density_matrix(GRID, np.random.default_rng(0), v)),
    "operator_dirac op": (_VALUES, lambda v: operator_dirac(GRID, _full((N, N), v))),
    "conditional_x_given_p k": (_INT_VALUES, lambda v: conditional_x_given_p(DIST, v)),
    "backaction_offset phi": (_DZ_VALUES, lambda v: backaction_offset(RHO, v)),
    "correct_diagonals phi": (_DZ_VALUES, lambda v: correct_diagonals(RHO, v)),
    "estimate_dirac_column counts": (_VALUES, lambda v: estimate_dirac_column(_counts(v), 0.3)),
    "estimate_dirac_column phi": (_DZ_VALUES, lambda v: estimate_dirac_column(_counts(1.0), v)),
    "estimate_dirac_column first_sliver": (
        _INT_VALUES, lambda v: estimate_dirac_column(_counts(0.0), 0.3, first_sliver=v)),
    "sample_counts expected": (_VALUES, lambda v: sample_counts(_counts(v), [1, 2])),
    "sample_counts expected as a list": (
        _VALUES, lambda v: sample_counts(_counts(v).tolist(), [1, 2])),
    "sample_counts seeds": (_INT_VALUES, lambda v: sample_counts(_counts(1.0), [v, 2])),
    "scan phi": (_DZ_VALUES, lambda v: scan(RHO, _scan_config(phi=v))),
    "scan photon_budget": (_DZ_VALUES, lambda v: scan(RHO, _scan_config(photon_budget=v),
                                                      noise=True, seed=1)),
    "scan seed": (_INT_VALUES, lambda v: scan(RHO, _scan_config(), noise=True, seed=v)),
    "fresnel_unitary dz": (_DZ_VALUES, lambda v: fresnel_unitary(GRID, v)),
    "build_kernel_unitary v": (_VALUES, lambda v: build_kernel_unitary(GRID, _full(N, v))),
    "build_kernel_unitary dz": (_DZ_VALUES, lambda v: build_kernel_unitary(GRID, np.ones(N), v)),
    "build_kernel_analytic dz, then bayes_propagate": (
        _DZ_VALUES, lambda v: bayes_propagate(DIST, build_kernel_analytic(GRID, v))),
    "direct_measure_displaced dz": (_DZ_VALUES, lambda v: direct_measure_displaced(RHO, BENCH, v)),
    "direct_measure_displaced seed": (
        _INT_VALUES, lambda v: direct_measure_displaced(RHO, _scan_config(), 0.1, noise=True,
                                                        seed=v)),
    "joint4_tensor v1": (_VALUES, lambda v: joint4_tensor(RHO, _full(N, v), np.ones(N))),
    "PropagatorKernel dz": (_DZ_VALUES, lambda v: _propagate_direct(dz=v, v=CHIRP.v)),
    # a distribution filled with a finite value
    **{f"{name} of a filled distribution": (
        _FINITE, lambda v, fn=fn: fn(DiracDistribution(grid=GRID, d=_full((N, N), v))))
       for name, fn in _OF_A_DISTRIBUTION.items()},
    "PropagatedDistribution.validate of a filled distribution": (
        _FINITE, lambda v: PropagatedDistribution(grid=GRID, dz=0.1, e=_full((N, N), v),
                                                  kind="measured").validate()),
}

# case name: a call whose container slot holds no sequence of what it takes, and must
# raise a ContractError before any other check: means past the Poisson limit are a
# ConfigError, and so is a mix of no states
_NOT_CONTAINERS = {
    "sample_counts, seeds None": lambda: sample_counts(_counts(1.0), None),
    "sample_counts, seeds an int": lambda: sample_counts(_counts(1.0), 5),
    "sample_counts, seeds an int, means past the Poisson limit": lambda: sample_counts(
        _counts(1e300), 5),
    "sample_counts, seeds a 0-d array": lambda: sample_counts(_counts(1.0), np.array(5)),
    "sample_counts, seeds a 2-d array of one per sliver": lambda: sample_counts(
        _counts(1.0), np.zeros((2, 1), dtype=int)),
    "mix, a list of states": lambda: mix([RHO]),
    "mix, a state": lambda: mix(RHO),
    "mix, None": lambda: mix(None),
    "mix, a pair of one": lambda: mix([(RHO,)]),
    "mix, a pair of three": lambda: mix([(RHO, 0.5, 0.5)]),
    "mix, a pair whose state is a string": lambda: mix([("a", 1.0)]),
}

# slot name: a call that must raise a DiracsimError
_REFUSED = {
    "pure_from_samples, n + 1 samples": lambda: pure_from_samples(GRID, np.ones(N + 1)),
    "operator_dirac, n x (n + 1)": lambda: operator_dirac(GRID, np.ones((N, N + 1))),
    "estimate_dirac_column, three analyzers": lambda: estimate_dirac_column(np.ones((3, N)), 0.3),
    "estimate_dirac_column, 1-D counts": lambda: estimate_dirac_column(np.ones(4), 0.3),
    "sample_counts, 2-D means": lambda: sample_counts(np.ones((4, N)), [1]),
    "sample_counts, one seed for two slivers": lambda: sample_counts(_counts(1.0), [1]),
    # counts that are not an array of integers or floats
    **{f"{name}, {what}": (lambda call=call, counts=counts: call(counts))
       for name, call in (("estimate_dirac_column", lambda c: estimate_dirac_column(c, 0.3)),
                          ("sample_counts", lambda c: sample_counts(c, [1, 2])))
       for what, counts in (("a ragged list", [[1.0] * N, [1.0]]),
                            ("strings", np.full((4, 2, N), "1")),
                            ("bools", np.ones((4, 2, N), bool)),
                            ("complex numbers", np.ones((4, 2, N), complex)),
                            ("None", None))},
    "build_kernel_unitary, n + 1 diagonal": lambda: build_kernel_unitary(GRID, np.ones(N + 1)),
    "build_kernel_unitary, (n + 1) x (n + 1)": lambda: build_kernel_unitary(
        GRID, np.eye(N + 1)),
    "fresnel_unitary, no unit map": lambda: fresnel_unitary(make_grid(N, 1.0), 0.1),
    "build_kernel_analytic, no unit map": lambda: build_kernel_analytic(make_grid(N, 1.0), 0.1),
    "joint4_tensor, n - 1 diagonal": lambda: joint4_tensor(RHO, np.ones(N - 1), np.ones(N)),
    "mix, two grids": lambda: mix([(RHO, 0.5),
                                   (random_density_matrix(OTHER, np.random.default_rng(0)), 0.5)]),
    "mix, no states": lambda: mix([]),
    "expectation_overlap, two grids": lambda: expectation_overlap(
        DIST, DiracDistribution(grid=OTHER, d=DIST.d)),
    "bayes_propagate, two grids": lambda: bayes_propagate(
        DiracDistribution(grid=OTHER, d=DIST.d), CHIRP),
    # a PropagatorKernel built directly holds the builders' checks
    "PropagatorKernel, neither v nor row": lambda: _propagate_direct(),
    "PropagatorKernel, both v and row": lambda: _propagate_direct(v=CHIRP.v, row=ROW),
    "PropagatorKernel, v of shape (5,)": lambda: _propagate_direct(v=np.ones(5)),
    "PropagatorKernel, v not unitary": lambda: _propagate_direct(v=2 * np.ones(N)),
    "PropagatorKernel, row of length 5": lambda: _propagate_direct(row=ROW[:5]),
    "PropagatorKernel, row of length 10": lambda: _propagate_direct(
        row=np.concatenate((ROW, ROW[:2]))),
    "conditional_x_given_p, k = n": lambda: conditional_x_given_p(DIST, N),
    "conditional_x_given_p, k = -1": lambda: conditional_x_given_p(DIST, -1),
    "random_density_matrix, rank n + 1": lambda: random_density_matrix(
        GRID, np.random.default_rng(0), N + 1),
    "Grid.skew, n + 1 columns": lambda: GRID.skew(np.ones((2, N + 1))),
    "Grid.unskew, rows past n": lambda: GRID.unskew(np.ones((2, N)), N - 1),
    "Grid.skew, a float row offset": lambda: GRID.skew(np.ones((2, N)), 0.0),
    "Grid.unskew, a bool row offset": lambda: GRID.unskew(np.ones((2, N)), True),
    # a Grid built directly holds make_grid's checks
    "Grid, dx = 0": lambda: Grid(n=4, dx=0.0).momenta,
    "Grid, n = True": lambda: Grid(n=True, dx=1.0),
    "Grid, n = 2.5": lambda: Grid(n=2.5, dx=1.0).row_blocks(),
    "Grid, dx = nan": lambda: Grid(n=4, dx=math.nan),
    "Grid, dx = -1": lambda: Grid(n=4, dx=-1.0),
    "Grid, wavelength -1": lambda: Grid(n=4, dx=1.0, unit_map=UnitMap(-1.0, 1.0)),
    "DensityMatrix, (n + 1) x (n + 1)": lambda: DensityMatrix(grid=GRID, rho=np.eye(N + 1)),
    "DiracDistribution, n x (n - 1)": lambda: DiracDistribution(grid=GRID, d=np.ones((N, N - 1))),
    "build_bench_state, edge outside the aperture": lambda: build_bench_state(
        BenchConfig(aperture_halfwidth=22e-3, edge_position=45e-3), GRID),
}


def _propagate_direct(dz=0.084, **fields):
    """Propagate DIST through a PropagatorKernel built directly with ``fields``."""
    return bayes_propagate(DIST, PropagatorKernel(grid=GRID, dz=dz, **fields))


def _outcome(call):
    """None if ``call`` returns or raises a DiracsimError with no warning,
    else what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except DiracsimError:
            pass
        except Exception as exc:  # a warning turned into an error included
            return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("slot", list(_SLOTS))
def test_every_edge_value_keeps_the_error_contract(slot):
    values, call = _SLOTS[slot]
    failures = {repr(v): _outcome(lambda: call(v)) for v in values}  # repr: 0.0 and -0.0 apart
    assert {v: what for v, what in failures.items() if what} == {}, slot


@pytest.mark.parametrize("slot", list(_REFUSED))
def test_a_wrong_shape_grid_or_index_is_refused(slot):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DiracsimError):
            _REFUSED[slot]()


@pytest.mark.parametrize("case", list(_NOT_CONTAINERS))
def test_a_container_that_is_not_a_sequence_is_refused_first(case):
    with pytest.raises(ContractError):
        _NOT_CONTAINERS[case]()


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
@pytest.mark.parametrize("slot", [slot for slot, (values, _) in _SLOTS.items()
                                  if values is _DZ_VALUES])
def test_a_float_slot_refuses_a_bool(slot, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DiracsimError):
            _SLOTS[slot][1](value)


def _plane(build):
    """The type and repr of the dz that ``build()`` holds, or the type and
    message of the DiracsimError it raises."""
    try:
        dz = build().dz
    except DiracsimError as exc:
        return type(exc).__name__, str(exc)
    return type(dz).__name__, repr(dz)


@pytest.mark.parametrize("value", _DZ_VALUES + [-1, np.float64("nan"), np.float64("inf")],
                         ids=repr)
def test_a_propagated_distribution_reads_dz_as_a_kernel_does(value):
    kernel = _plane(lambda: PropagatorKernel(grid=GRID, dz=value, v=CHIRP.v))
    assert _plane(lambda: PropagatedDistribution(grid=GRID, dz=value, e=DIST.d,
                                                 kind="measured")) == kernel


@pytest.mark.parametrize("kind", [None, 3, b"x"], ids=repr)
def test_a_propagated_distribution_kind_that_is_not_a_str_is_refused(kind):
    with pytest.raises(ContractError, match="kind must be a str"):
        PropagatedDistribution(grid=GRID, dz=0.1, e=DIST.d, kind=kind)


def _ragged(shape):
    """Nested lists of ones of ``shape`` whose last entry has the wrong length."""
    rows = np.ones(shape).tolist()
    rows[-1] = [1.0, 1.0] if len(shape) == 1 else rows[-1][:-1]
    return rows


# form: the form built for an array of a shape; none of them is an array of numbers
_NOT_ARRAYS = {
    "a nested list of strings": lambda shape: np.full(shape, "1").tolist(),
    "a ragged list": _ragged,
    "None": lambda shape: None,
    "an object array": lambda shape: np.ones(shape, dtype=object),
    "a string array": lambda shape: np.full(shape, "1"),
    "a bool array": lambda shape: np.ones(shape, dtype=bool),
}
# form: the form built from an array of whole numbers
_NUMBER_ARRAYS = {
    "a nested list of numbers": lambda a: a.tolist(),
    "an integer array": lambda a: a.astype(int),
}
E0 = np.eye(N)[0]

# slot name: (an array of whole numbers the slot takes, call with an array and a directory)
_ARRAY_SLOTS = {
    "PureState, then density_from_pure": (
        E0, lambda a, out: density_from_pure(PureState(grid=GRID, amp=a))),
    "DensityMatrix, then validate": (
        np.diag(E0), lambda a, out: DensityMatrix(grid=GRID, rho=a).validate()),
    "DiracDistribution, then marginal_x": (
        np.eye(N), lambda a, out: marginal_x(DiracDistribution(grid=GRID, d=a))),
    "PropagatedDistribution, then validate": (
        np.eye(N), lambda a, out: PropagatedDistribution(grid=GRID, dz=0.1, e=a,
                                                         kind="measured").validate()),
    "pure_from_samples": (E0, lambda a, out: pure_from_samples(GRID, a)),
    "operator_dirac": (np.eye(N), lambda a, out: operator_dirac(GRID, a)),
    "build_kernel_unitary v, a diagonal": (
        np.ones(N), lambda a, out: build_kernel_unitary(GRID, a)),
    "build_kernel_unitary v, a dense matrix": (
        np.eye(N), lambda a, out: build_kernel_unitary(GRID, a)),
    "PropagatorKernel row": (np.ones(N), lambda a, out: _propagate_direct(row=a)),
    "joint4_tensor v1": (np.ones(N), lambda a, out: joint4_tensor(RHO, a, np.ones(N))),
    "joint4_tensor v2": (np.ones(N), lambda a, out: joint4_tensor(RHO, np.ones(N), a)),
    "Grid.skew": (np.ones((2, N)), lambda a, out: GRID.skew(a)),
    "Grid.unskew": (np.ones((2, N)), lambda a, out: GRID.unskew(a)),
    "sample_counts": (np.ones((4, 2, N)), lambda a, out: sample_counts(a, [1, 2])),
    "estimate_dirac_column": (np.ones((4, 2, N)), lambda a, out: estimate_dirac_column(a, 0.3)),
    "write_matrix": (np.eye(N), lambda a, out: write_matrix(str(out / "m.txt"), a, {})),
    "write_counts": (np.ones((4, N)), lambda a, out: write_counts(str(out / "c.txt"), a, {})),
}


@pytest.mark.parametrize("form", list(_NOT_ARRAYS))
@pytest.mark.parametrize("slot", list(_ARRAY_SLOTS))
def test_an_array_that_is_not_numbers_is_refused(slot, form, tmp_path):
    example, call = _ARRAY_SLOTS[slot]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DiracsimError):
            call(_NOT_ARRAYS[form](example.shape), tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("form", list(_NUMBER_ARRAYS))
@pytest.mark.parametrize("slot", list(_ARRAY_SLOTS))
def test_an_array_of_numbers_keeps_the_error_contract(slot, form, tmp_path):
    example, call = _ARRAY_SLOTS[slot]
    assert _outcome(lambda: call(_NUMBER_ARRAYS[form](example), tmp_path)) is None


# a flag must be a bool or a numpy bool: no string, number or None, however it reads
_NOT_FLAGS = ["false", "true", 0, 1, 1.0, None]
_FLAG_SLOTS = {
    "build_bench_state mixed": lambda v: build_bench_state(
        BenchConfig(**PHASE_BENCH, mixed=v), PHASE_GRID),
    "scan noise": lambda v: scan(RHO, _scan_config(), noise=v, seed=1),
    "scan correct": lambda v: scan(RHO, _scan_config(), correct=v),
    "direct_measure_displaced noise": lambda v: direct_measure_displaced(
        RHO, _scan_config(), 0.1, noise=v, seed=1),
    "direct_measure_displaced correct": lambda v: direct_measure_displaced(
        RHO, _scan_config(), 0.1, correct=v),
}


@pytest.mark.parametrize("value", _NOT_FLAGS, ids=repr)
@pytest.mark.parametrize("slot", list(_FLAG_SLOTS))
def test_a_flag_that_is_not_a_bool_is_refused(slot, value):
    with pytest.raises(ConfigError, match=rf"must be a bool, got {re.escape(repr(value))}$"):
        _FLAG_SLOTS[slot](value)


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
@pytest.mark.parametrize("slot", list(_FLAG_SLOTS))
def test_a_bool_flag_is_taken(slot, value):
    _FLAG_SLOTS[slot](value)
