"""Property tests over random lattices: n from 2 to 64 (odd and prime
included) and 97, where the FFT takes its prime-length path; centre offsets
x0 of wide integer and non-integer multiples of dx; spacings dx; state ranks.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from diracsim import (UnitMap, bayes_propagate, build_kernel_unitary, dirac_distribution,
                      fresnel_unitary, make_grid, marginal_p, marginal_x,
                      random_density_matrix, reconstruct_density)
from conftest import displaced_trace_oracle

UM = UnitMap(wavelength=780e-9, focal_length=1.0, magnification=4.935)

_SIZES = st.one_of(st.integers(2, 64), st.sampled_from([61, 63, 64, 97]))
_SHIFTS = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
_SPACINGS = st.floats(1e-6, 10.0)
_SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)


def _lattice(n, shift, dx):
    return make_grid(n, dx, shift * dx, UM)


def _state(grid, rank_frac, seed):
    rank = 1 + int(rank_frac * (grid.n - 1))
    return random_density_matrix(grid, np.random.default_rng(seed), rank=rank)


@_SETTINGS
@given(n=_SIZES, shift=_SHIFTS, dx=_SPACINGS)
@example(n=256, shift=128, dx=44e-3 / 256)  # the default bench lattice
@example(n=97, shift=0.5, dx=0.37)
@example(n=2, shift=-3, dx=1e-6)
def test_overlap_matrix_is_unitary_and_matches_the_plane_waves(n, shift, dx):
    grid = _lattice(n, shift, dx)
    u = grid.overlap_matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12
    # the signed, phased DFT entries equal exp(i x_m p_k) / sqrt(n) to the
    # rounding of the phase x_m p_k itself
    phase = np.outer(grid.coords, grid.momenta)
    direct = np.exp(1j * phase) / np.sqrt(n)
    assert np.max(np.abs(u - direct)) < 1e-15 * (1.0 + np.max(np.abs(phase)))


@_SETTINGS
@given(n=_SIZES, shift=_SHIFTS, dx=_SPACINGS, rank_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=256, shift=128, dx=44e-3 / 256, rank_frac=0.0, seed=1)
@example(n=97, shift=-41.25, dx=0.01, rank_frac=1.0, seed=2)
def test_distribution_normalisation_marginals_and_round_trip(n, shift, dx, rank_frac, seed):
    grid = _lattice(n, shift, dx)
    rho = _state(grid, rank_frac, seed)
    d = dirac_distribution(rho)
    u = grid.overlap_matrix
    assert abs(d.d.sum() - 1.0) < 1e-12
    assert np.max(np.abs(marginal_x(d) - rho.rho.diagonal().real)) < 1e-12
    momentum = np.einsum("mk,mn,nk->k", u.conj(), rho.rho, u).real
    assert np.max(np.abs(marginal_p(d) - momentum)) < 1e-12
    back = reconstruct_density(d)
    assert np.max(np.abs(back.rho - rho.rho)) < 1e-12
    back.validate()


@_SETTINGS
@given(n=_SIZES, shift=_SHIFTS, dx=_SPACINGS, dz=st.floats(0.0, 0.5),
       rank_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
@example(n=97, shift=128, dx=44e-3 / 97, dz=0.16, rank_frac=0.5, seed=1)
@example(n=31, shift=128.5, dx=44e-3 / 31, dz=0.325, rank_frac=0.0, seed=2)
@example(n=3, shift=0.5, dx=2.0, dz=0.0, rank_frac=1.0, seed=3)
def test_chirp_kernel_bayes_product_matches_dense_kernel_and_oracle(
        n, shift, dx, dz, rank_frac, seed):
    grid = _lattice(n, shift, dx)
    rho = _state(grid, rank_frac, seed)
    d = dirac_distribution(rho)
    chirp = fresnel_unitary(grid, dz)
    kernel = build_kernel_unitary(grid, chirp, dz)
    e = bayes_propagate(d, kernel).e
    dense = bayes_propagate(d, build_kernel_unitary(grid, np.diag(chirp), dz)).e
    assert np.max(np.abs(e - dense)) < 1e-12
    if n <= 32:  # the brute-force oracle costs O(n^5)
        assert np.max(np.abs(e - displaced_trace_oracle(kernel.k_basis, rho.rho))) < 1e-10
