import numpy as np
import pytest

from diracsim import (ContractError, DiracDistribution, NullEventError,
                      NumericalIntegrityError, bench_pure_state, build_bench_state,
                      conditional_x_given_p, density_from_pure, dirac_distribution,
                      expectation_overlap, make_grid, marginal_p, marginal_x, mix,
                      operator_dirac, pure_from_samples, purity, random_density_matrix,
                      reconstruct_density, to_momentum)
from conftest import bench_grid, projector_trace_oracle


def _basis_state(grid, m):
    raw = np.zeros(grid.n)
    raw[m] = 1.0
    return density_from_pure(pure_from_samples(grid, raw))


def test_position_eigenstate_distribution():
    grid = make_grid(8, 1.0)
    d = dirac_distribution(_basis_state(grid, 0))
    expected = np.zeros((8, 8))
    expected[0, :] = 1.0 / 8.0
    assert np.max(np.abs(d.d - expected)) < 1e-14


def test_momentum_eigenstate_distribution():
    grid = make_grid(8, 1.0)
    rho = density_from_pure(pure_from_samples(grid, grid.overlap_matrix[:, 0]))
    d = dirac_distribution(rho)
    expected = np.zeros((8, 8))
    expected[:, 0] = 1.0 / 8.0
    assert np.max(np.abs(d.d - expected)) < 1e-13


def test_projector_trace_oracle_small():
    rng = np.random.default_rng(42)
    for n in (2, 4, 8, 16):
        grid = make_grid(n, 0.8, 0.25)
        for _ in range(3):
            rho = random_density_matrix(grid, rng)
            d = dirac_distribution(rho)
            oracle = projector_trace_oracle(grid, rho.rho)
            assert np.max(np.abs(d.d - oracle)) < 1e-12


def test_marginals_match_direct_matrix_elements():
    rng = np.random.default_rng(9)
    grid = make_grid(8, 0.5, -0.3)
    rho = random_density_matrix(grid, rng)
    d = dirac_distribution(rho)
    u = grid.overlap_matrix
    direct_p = np.einsum("mk,mn,nk->k", u.conj(), rho.rho, u).real
    assert np.max(np.abs(marginal_p(d) - direct_p)) < 1e-12
    assert np.max(np.abs(marginal_x(d) - rho.rho.diagonal().real)) < 1e-12
    assert marginal_x(d).sum() == pytest.approx(1.0, abs=1e-12)


def test_tophat_marginal_is_probability():
    grid, cfg = bench_grid(n=64)
    psi = bench_pure_state(cfg, grid)
    d = dirac_distribution(density_from_pure(psi))
    assert np.max(np.abs(marginal_x(d) - np.abs(psi.amp) ** 2)) < 1e-12


def test_conditional_reproduces_wavefunction():
    grid = make_grid(32, 0.4)
    x = grid.coords
    psi = pure_from_samples(grid, np.exp(-x ** 2 / 4) * np.exp(0.37j * x))
    d = dirac_distribution(density_from_pure(psi))
    k0 = grid.n // 2  # p = 0 column
    cond = conditional_x_given_p(d, k0)
    factor = np.vdot(psi.amp, cond)
    assert np.max(np.abs(cond - factor * psi.amp)) < 1e-10


def test_conditional_of_momentum_eigenstate_is_flat():
    grid = make_grid(8, 1.0)
    rho = density_from_pure(pure_from_samples(grid, grid.overlap_matrix[:, 0]))
    cond = conditional_x_given_p(dirac_distribution(rho), 0)
    assert np.max(np.abs(cond - cond[0])) < 1e-12


def test_conditional_on_null_event_raises():
    grid = make_grid(2, 1.0)
    rho = density_from_pure(pure_from_samples(grid, np.array([1.0, -1.0])))
    d = dirac_distribution(rho)
    assert marginal_p(d)[1] < 1e-15  # antisymmetric state has an exact p = 0 node
    with pytest.raises(NullEventError):
        conditional_x_given_p(d, 1)
    with pytest.raises(ContractError):
        conditional_x_given_p(d, 5)


def test_reconstruction_round_trip():
    rng = np.random.default_rng(3)
    grid = make_grid(8, 0.6, 0.1)
    rho = random_density_matrix(grid, rng)
    rec = reconstruct_density(dirac_distribution(rho))
    assert np.max(np.abs(rec.rho - rho.rho)) < 1e-10
    rec.validate()


def test_reconstruction_of_position_eigenstate():
    grid = make_grid(8, 1.0)
    rec = reconstruct_density(dirac_distribution(_basis_state(grid, 0)))
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.max(np.abs(rec.rho - expected)) < 1e-12


def test_bench_reconstruction_square_support_and_double_phase_jump():
    grid, cfg = bench_grid(n=64, edge_loss=0.0)
    rho = build_bench_state(cfg, grid)
    rec = reconstruct_density(dirac_distribution(rho))
    inside = np.abs(grid.coords - grid.x0) <= cfg.aperture_halfwidth
    block = np.abs(rec.rho[np.ix_(inside, inside)])
    assert np.max(np.abs(block - block[0, 0])) < 1e-10  # equal-magnitude square support
    # the phase step appears along both axes
    left = np.flatnonzero(grid.coords <= cfg.edge_position)[-1]
    right = left + 1
    far = np.flatnonzero(inside)[0]
    jump_row = np.angle(rec.rho[right, far]) - np.angle(rec.rho[left, far])
    jump_col = np.angle(rec.rho[far, right]) - np.angle(rec.rho[far, left])
    assert abs(np.exp(1j * jump_row) - np.exp(1j * cfg.static_phase_step)) < 1e-10
    assert abs(np.exp(1j * jump_col) - np.exp(-1j * cfg.static_phase_step)) < 1e-10


def test_expectation_overlap_identity_and_purity():
    rng = np.random.default_rng(11)
    grid = make_grid(8, 0.5)
    rho = random_density_matrix(grid, rng)
    d = dirac_distribution(rho)
    d_eye = operator_dirac(grid, np.eye(8))
    assert expectation_overlap(d, d_eye) == pytest.approx(1.0, abs=1e-10)
    assert expectation_overlap(d, d).real == pytest.approx(
        np.trace(rho.rho @ rho.rho).real, abs=1e-11)


def test_expectation_overlap_matches_trace():
    rng = np.random.default_rng(12)
    grid = make_grid(8, 0.5)
    rho = random_density_matrix(grid, rng)
    d = dirac_distribution(rho)
    for _ in range(5):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = 0.5 * (a + a.conj().T)
        val = expectation_overlap(d, operator_dirac(grid, a))
        assert abs(val - np.trace(a @ rho.rho)) < 1e-11


def test_expectation_overlap_grid_contract():
    rng = np.random.default_rng(13)
    d1 = dirac_distribution(random_density_matrix(make_grid(4, 1.0), rng))
    d2 = dirac_distribution(random_density_matrix(make_grid(4, 2.0), rng))
    with pytest.raises(ContractError):
        expectation_overlap(d1, d2)


def test_purity_values():
    grid = make_grid(8, 1.0)
    pure = _basis_state(grid, 2)
    assert purity(dirac_distribution(pure)) == pytest.approx(1.0, abs=1e-12)
    mixed = mix([(_basis_state(grid, 1), 0.5), (_basis_state(grid, 5), 0.5)])
    assert purity(dirac_distribution(mixed)) == pytest.approx(0.5, abs=1e-12)


def test_bench_mixed_purity_against_trace_oracle():
    grid, cfg = bench_grid(n=64, mixed=True)
    rho = build_bench_state(cfg, grid)
    mu = purity(dirac_distribution(rho))
    assert mu == pytest.approx(np.trace(rho.rho @ rho.rho).real, abs=1e-10)


def test_pure_state_factorization():
    grid = make_grid(16, 0.5, 0.2)
    x = grid.coords
    psi = pure_from_samples(grid, np.exp(-x ** 2) * np.exp(0.4j * x ** 2))
    d = dirac_distribution(density_from_pure(psi))
    psi_p = to_momentum(grid, psi.amp)
    expected = grid.overlap_matrix.conj() * np.outer(psi.amp, psi_p.conj())
    assert np.max(np.abs(d.d - expected)) < 1e-12


def test_state_independent_phase_overlay():
    # centered real nonnegative Gaussian, narrow enough that its momentum
    # transform stays positive: every nonzero entry of d carries exactly
    # the plane-wave overlap phase
    grid = make_grid(32, 0.45)
    psi = pure_from_samples(grid, np.exp(-grid.coords ** 2 / 0.5))
    d = dirac_distribution(density_from_pure(psi))
    mask = np.abs(d.d) > 1e-12
    ratio = d.d[mask] / grid.overlap_matrix.conj()[mask]
    assert np.max(np.abs(ratio.imag / np.abs(ratio))) < 1e-9
    assert np.all(ratio.real > 0)


def test_anti_standard_is_conjugate():
    rng = np.random.default_rng(21)
    grid = make_grid(8, 1.0)
    d = dirac_distribution(random_density_matrix(grid, rng))
    assert np.array_equal(d.anti_standard.d, d.d.conj())


def test_operator_dirac_shape_contract():
    grid = make_grid(8, 1.0)
    with pytest.raises(ContractError):
        operator_dirac(grid, np.eye(7))


def test_validate_rejects_nan_distribution():
    grid = make_grid(4, 1.0)
    with pytest.raises(ContractError):
        DiracDistribution(grid=grid, d=np.full((4, 4), np.nan, dtype=complex)).validate()
    # a NaN with a zero imaginary part passes the imaginary-residual check
    # and must still fail the negativity check of the marginals
    d = np.full((4, 4), 1 / 16, dtype=complex)
    d[1, 2] = np.nan
    dist = DiracDistribution(grid=grid, d=d)
    for marginal in (marginal_x, marginal_p):
        with pytest.raises(NumericalIntegrityError, match="negative"):
            marginal(dist)
