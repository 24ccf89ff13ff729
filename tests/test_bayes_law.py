"""Bayes' law as the paper states it: a distribution propagated to one
displaced plane and then on to a second is the distribution propagated to
the second plane in one step, because the chirps compose, V(dz2) V(dz1) =
V(dz1 + dz2).  Drawn lattices span the bench aperture, so the largest chirp
phase s (n/2)^2 is up to about 1,200 rad at every n.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from diracsim import (DiracDistribution, UnitMap, bayes_propagate, build_kernel_unitary,
                      dirac_distribution, fresnel_unitary, make_grid, random_density_matrix)

UM = UnitMap(wavelength=780e-9, focal_length=1.0, magnification=4.935)
SPAN = 44e-3  # the bench aperture

_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
_SIZES = st.sampled_from([2, 3, 8, 17, 63, 64, 97])
_SHIFTS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_DZ = st.floats(0.0, 0.3)


def _distribution(n, shift, rank, seed):
    grid = make_grid(n, SPAN / n, shift * SPAN / n, UM)
    rho = random_density_matrix(grid, np.random.default_rng(seed), rank=min(rank, n))
    return dirac_distribution(rho)


def _propagate(d, dz):
    return bayes_propagate(d, build_kernel_unitary(d.grid, fresnel_unitary(d.grid, dz), dz)).e


def _largest_phase(grid, dz):
    """s (n/2)^2 with s = pi dz dx^2 / (lambda f^2), the chirp's phase at m = 0."""
    return np.pi * dz * grid.dx ** 2 / (UM.wavelength * UM.focal_length ** 2) * (grid.n / 2) ** 2


@_SETTINGS
@given(n=_SIZES, shift=_SHIFTS, rank=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       dz1=_DZ, dz2=_DZ)
@example(n=97, shift=0.5, rank=3, seed=1, dz1=0.3, dz2=0.3)
@example(n=2, shift=-7.0, rank=1, seed=2, dz1=0.084, dz2=0.16)
def test_two_displacements_compose_into_their_sum(n, shift, rank, seed, dz1, dz2):
    d = _distribution(n, shift, rank, seed)
    first = DiracDistribution(grid=d.grid, d=_propagate(d, dz1))
    twice = _propagate(first, dz2)
    once = _propagate(d, dz1 + dz2)
    bound = 2e-15 * max(_largest_phase(d.grid, dz1 + dz2), 1.0) * np.max(np.abs(once))
    assert np.max(np.abs(twice - once)) <= bound


@_SETTINGS
@given(n=_SIZES, shift=_SHIFTS, rank=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_no_displacement_returns_the_distribution(n, shift, rank, seed):
    """V(0) is exactly all ones, but the FFT round trip of the chirp branch
    rounds, so dz = 0 returns d to 2e-15 of max|d|, not bit for bit."""
    d = _distribution(n, shift, rank, seed)
    assert np.max(np.abs(_propagate(d, 0.0) - d.d)) <= 2e-15 * np.max(np.abs(d.d))
