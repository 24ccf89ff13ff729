"""Bayes' law as the paper states it: a distribution propagated to one
displaced plane and then on to a second is the distribution propagated to
the second plane in one step, because the chirps compose, V(dz2) V(dz1) =
V(dz1 + dz2).  Drawn lattices span the bench aperture, so the largest chirp
phase s (n/2)^2 is up to about 1,200 rad at every n.

Under shot noise the law holds as the counting statistics predict: a noisy
scan's estimate has the variance of its Poisson counts, and a noisy scan
propagated by the chirp differs from a noisy scan of the displaced camera
by their two noises and nothing more.  The variance oracles are in
``conftest.py``; each check is a mean over independent seeded trials,
within 5 sigma of 1.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diracsim import (BenchConfig, DensityMatrix, DiracDistribution, UnitMap, bayes_propagate,
                      build_kernel_unitary, dirac_distribution, direct_measure_displaced,
                      fresnel_unitary, make_grid, random_density_matrix, scan)

from conftest import estimate_variances, propagated_variance

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


# -- under shot noise: n = 16, a rank-2 state, two photon budgets

NOISE_N = 16
_TRIALS = 200  # independent noisy scans per configuration
_BUDGETS = [1e5, 1e7]


def _noisy_bench(budget):
    """A rank-2 random state on the n = 16 lattice, and a bench of that budget."""
    grid = make_grid(NOISE_N, SPAN / NOISE_N, 0.0, UM)
    rho = random_density_matrix(grid, np.random.default_rng(16), rank=2)
    return rho, BenchConfig(aperture_halfwidth=SPAN / 2, edge_position=0.0, photon_budget=budget)


@pytest.mark.parametrize("budget", _BUDGETS)
def test_a_noisy_scan_has_the_variance_of_its_counts(budget):
    """Over independent scans, the sample variance of Re d (of Im d) at each
    entry, divided by its prediction and averaged over the n^2 entries, lies
    within 5 sigma of 1 for its chi-square law, sigma^2 = 2 / (n^2 (S - 1))."""
    rho, bench = _noisy_bench(budget)
    scans = np.array([scan(rho, bench, noise=True, seed=seed).d for seed in range(_TRIALS)])
    bound = 5.0 * np.sqrt(2.0 / (NOISE_N ** 2 * (_TRIALS - 1)))
    for part, predicted in zip((scans.real, scans.imag),
                               estimate_variances(rho, bench.phi, budget)):
        ratio = np.mean(part.var(axis=0, ddof=1) / predicted)
        assert abs(ratio - 1.0) <= bound, (ratio, bound)


@pytest.mark.parametrize("budget", _BUDGETS)
@pytest.mark.parametrize("dz", [0.084, 0.325])
def test_a_noisy_scan_propagates_into_a_noisy_scan_of_the_displaced_camera(budget, dz):
    """A noisy scan propagated by the chirp and a noisy scan of the displaced
    camera on an independent seed differ by their two noises: the trials'
    mean of mean |e_prop - e_direct|^2 / (V_prop + V_direct) lies within
    5 sigma of 1, sigma the standard error of that mean from the trials'
    own spread."""
    rho, bench = _noisy_bench(budget)
    chirp = fresnel_unitary(rho.grid, dz)
    kernel = build_kernel_unitary(rho.grid, chirp, dz)
    displaced = DensityMatrix(grid=rho.grid, rho=chirp[:, None] * rho.rho * chirp.conj())
    predicted = (propagated_variance(sum(estimate_variances(rho, bench.phi, budget)), chirp)
                 + sum(estimate_variances(displaced, bench.phi, budget)))
    ratios = []
    for trial in range(_TRIALS):
        propagated = bayes_propagate(scan(rho, bench, noise=True, seed=trial), kernel).e
        direct = direct_measure_displaced(rho, bench, dz, noise=True, seed=_TRIALS + trial).e
        ratios.append(np.mean(np.abs(propagated - direct) ** 2 / predicted))
    error = np.std(ratios, ddof=1) / np.sqrt(_TRIALS)
    assert abs(np.mean(ratios) - 1.0) <= 5.0 * error, (np.mean(ratios), error)
