"""The grid-bound types check their array's shape once, when they are built.

Each holds what ``lattice._as_array`` returns: ``PureState`` amplitudes of
shape (n,); ``DensityMatrix``, ``DiracDistribution`` and
``PropagatedDistribution`` n x n arrays.  Any other shape is a
ContractError from the constructor, ``<what> shape (...) does not match
grid n=<n>``, so no consumer of the four types checks it again.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diracsim import (ContractError, DensityMatrix, DiracDistribution, PropagatedDistribution,
                      PureState, make_grid)

# name: (constructor, the right shape for n, message pattern for n)
_TYPES = {
    "PureState": (lambda grid, a: PureState(grid=grid, amp=a),
                  lambda n: (n,),
                  lambda n: rf"^amplitudes shape \(.*\) does not match grid n={n}$"),
    "DensityMatrix": (lambda grid, a: DensityMatrix(grid=grid, rho=a),
                      lambda n: (n, n),
                      lambda n: rf"^density matrix shape \(.*\) does not match grid n={n}$"),
    "DiracDistribution": (lambda grid, a: DiracDistribution(grid=grid, d=a),
                          lambda n: (n, n),
                          lambda n: rf"^distribution shape \(.*\) does not match grid n={n}$"),
    "PropagatedDistribution": (
        lambda grid, a: PropagatedDistribution(grid=grid, dz=0.1, e=a, kind="measured"),
        lambda n: (n, n), lambda n: rf"^propagated shape \(.*\) does not match grid n={n}$"),
}


def _cases(name, n, shapes, message):
    return [pytest.param(name, n, shape, message, id=f"{name}-{shape}") for shape in shapes]


@pytest.mark.parametrize("name, n, shape, message", [
    *_cases("DiracDistribution", 8, [(8, 9), (9, 8), (8,), (7, 8), (8, 7), (8, 8, 1)],
            r"shape .* does not match grid n=8"),
    *_cases("DensityMatrix", 16, [(16, 17), (17, 16), (15, 15)],
            r"^density matrix shape \(.*\) does not match grid n=16$"),
    # (2, 8) and (16,) hold n^2 entries, as an n x n array does
    *_cases("PropagatedDistribution", 4, [(4, 5), (2, 8), (16,), (4, 4, 1), (3, 3)],
            r"shape .* does not match grid n=4"),
    *_cases("PureState", 4, [(5,), (4, 1), (4, 4), ()],
            r"^amplitudes shape \(.*\) does not match grid n=4$"),
])
def test_a_wrong_shape_is_refused_when_the_object_is_built(name, n, shape, message):
    build = _TYPES[name][0]
    grid = make_grid(n, 1.0)
    with pytest.raises(ContractError, match=message):
        build(grid, np.zeros(shape, dtype=complex))


@st.composite
def _grids_and_shapes(draw):
    n = draw(st.integers(2, 16))
    side = st.one_of(st.integers(n - 1, n + 1), st.integers(0, 3 * n))
    return n, tuple(draw(st.lists(side, max_size=3)))


@pytest.mark.parametrize("name", sorted(_TYPES))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=_grids_and_shapes())
@example(case=(4, (4,)))
@example(case=(4, (4, 4)))
@example(case=(4, ()))
@example(case=(4, (4, 4, 1)))
@example(case=(4, (1, 4, 4)))
@example(case=(4, (4, 1)))
@example(case=(4, (16,)))
@example(case=(5, (5, 0)))
def test_each_type_builds_only_from_its_own_shape(name, case):
    build, right, message = _TYPES[name]
    n, shape = case
    grid = make_grid(n, 1.0)
    build(grid, np.zeros(right(n), dtype=complex))
    if shape != right(n):
        with pytest.raises(ContractError, match=message(n)):
            build(grid, np.zeros(shape, dtype=complex))
