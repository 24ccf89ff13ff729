import numpy as np
import pytest

from diracsim import (ConfigError, ContractError, DegenerateKernelError, UnitMap,
                      bayes_propagate, build_kernel_analytic, build_kernel_unitary,
                      density_from_pure, dirac_distribution, direct_measure_displaced,
                      fresnel_unitary, joint4_tensor, make_grid, pure_from_samples,
                      random_density_matrix, scan)
from diracsim import BenchConfig, NumericalIntegrityError, PropagatedDistribution
from diracsim.bayesprop import KIND_ANALYTIC, KIND_UNITARY
from conftest import (analytic_kernel_term, bench_grid, displaced_trace_oracle, joint4,
                      random_unitary)

UM = UnitMap(wavelength=780e-9, focal_length=1.0, magnification=4.935)


def _unit_grid(n=16):
    return make_grid(n, 0.5, 0.0, UM)


def test_fresnel_unitary_basics():
    grid = _unit_grid()
    v0 = fresnel_unitary(grid, 0.0)
    assert v0.shape == (16,)
    assert np.max(np.abs(v0 - 1.0)) < 1e-12
    v = fresnel_unitary(grid, 0.084)
    assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12
    rng = np.random.default_rng(0)
    w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert abs(np.linalg.norm(v * w) - np.linalg.norm(w)) < 1e-12
    with pytest.raises(ConfigError):
        fresnel_unitary(grid, -0.1)
    with pytest.raises(ConfigError):
        fresnel_unitary(make_grid(16, 0.5), 0.1)  # no unit map


def test_unitary_kernel_identity_case():
    rng = np.random.default_rng(1)
    grid = _unit_grid()
    d = dirac_distribution(random_density_matrix(grid, rng))
    kernel = build_kernel_unitary(grid, np.eye(16))
    assert kernel.kind == KIND_UNITARY
    e = bayes_propagate(d, kernel)
    assert np.max(np.abs(e.e - d.d)) < 1e-12


def test_unitary_kernel_completeness_and_hand_assembly():
    rng = np.random.default_rng(2)
    grid = make_grid(4, 0.7, 0.1, UM)
    v = random_unitary(4, rng)
    kernel = build_kernel_unitary(grid, v)
    cond = kernel.cond_array()
    assert np.max(np.abs(cond.sum(axis=0) - 1.0)) < 1e-10
    u = grid.overlap_matrix
    kb = kernel.k_basis
    for j in range(4):
        for m in range(4):
            for kp in range(4):
                hand = (np.vdot(u[:, kp], kb[:, j]) * np.conj(kb[m, j])
                        / np.conj(u[m, kp]))
                assert abs(cond[j, m, kp] - hand) < 1e-12


def test_unitary_kernel_rejects_non_unitary():
    grid = _unit_grid(8)
    with pytest.raises(ContractError):
        build_kernel_unitary(grid, np.ones((8, 8)))
    with pytest.raises(ContractError):
        build_kernel_unitary(grid, np.eye(7))


def test_unitary_kernel_rejects_bad_chirp_vectors():
    grid = _unit_grid(8)
    chirp = fresnel_unitary(grid, 0.16)
    nan_dense = np.eye(8, dtype=complex)
    nan_dense[3, 3] = np.nan
    nan_chirp = chirp.copy()
    nan_chirp[3] = np.nan
    for bad in (fresnel_unitary(_unit_grid(9), 0.16),  # wrong length
                np.append(chirp, 1.0), chirp[:, None],
                chirp * (1.0 + 1e-9), nan_chirp, nan_dense):
        with pytest.raises(ContractError):
            build_kernel_unitary(grid, bad)
    with pytest.raises(ContractError):
        direct_measure_displaced(random_density_matrix(grid, np.random.default_rng(0)),
                                 BenchConfig(aperture_halfwidth=grid.span / 2,
                                             edge_position=grid.x0 + grid.dx), np.nan)


@pytest.mark.parametrize("dz", [0.0, 0.084, 0.325])
def test_diagonal_and_dense_chirp_give_the_same_kernel(dz):
    grid = _unit_grid(16)
    chirp = fresnel_unitary(grid, dz)
    diagonal = build_kernel_unitary(grid, chirp, dz)
    dense = build_kernel_unitary(grid, np.diag(chirp), dz)
    for name in ("k_basis", "col", "row", "inv"):
        assert np.max(np.abs(getattr(diagonal, name) - getattr(dense, name))) < 1e-15


def test_exact_bayes_identity_random_unitaries():
    rng = np.random.default_rng(3)
    grid = _unit_grid(16)
    rho = random_density_matrix(grid, rng)
    d = dirac_distribution(rho)
    for _ in range(3):
        v = random_unitary(16, rng)
        kernel = build_kernel_unitary(grid, v)
        e = bayes_propagate(d, kernel)
        oracle = displaced_trace_oracle(kernel.k_basis, rho.rho)
        assert np.max(np.abs(e.e - oracle)) < 1e-10
        e.validate()
        assert abs(e.e.sum() - 1.0) < 1e-9


def test_kernel_state_independence():
    rng = np.random.default_rng(4)
    grid = _unit_grid(8)
    v = random_unitary(8, rng)
    k1 = build_kernel_unitary(grid, v)
    k2 = build_kernel_unitary(grid, v)
    assert np.array_equal(k1.col, k2.col)
    assert np.array_equal(k1.row, k2.row)
    assert np.array_equal(k1.inv, k2.inv)
    a1 = build_kernel_analytic(grid, 0.3)
    a2 = build_kernel_analytic(grid, 0.3)
    assert np.array_equal(a1.col, a2.col)
    assert np.array_equal(a1.row, a2.row)
    assert np.array_equal(a1.inv, a2.inv)


def test_bayes_propagate_grid_contract():
    rng = np.random.default_rng(5)
    d = dirac_distribution(random_density_matrix(_unit_grid(8), rng))
    kernel = build_kernel_unitary(_unit_grid(16), np.eye(16))
    with pytest.raises(ContractError):
        bayes_propagate(d, kernel)


def test_analytic_term_alpha_vanishes_on_axis():
    # on the optical axis both the lens cross term and the oblique-path term
    # vanish, leaving the bare wavelet
    for dz in (0.05, 0.16, 0.4):
        r = np.sqrt(dz ** 2 + (2e-3 - 3e-3) ** 2)
        bare = np.exp(2j * np.pi * r / 780e-9) / r
        val = analytic_kernel_term(0.0, 2e-3, 3e-3, dz, 780e-9, 1.0)
        assert abs(val - bare) < 1e-9 * abs(bare)


def test_analytic_term_frozen_regression_value():
    val = analytic_kernel_term(10e-3, 2e-3, 3e-3, 0.16, 780e-9, 1.0)
    frozen = 1.4968921281006697 + 6.067972325046178j
    assert abs(val - frozen) < 1e-6 * abs(frozen)


@pytest.mark.parametrize("n", [8, 9, 12])
@pytest.mark.parametrize("dz", [0.084, 0.16, 0.325])
def test_analytic_kernel_matches_closed_form_oracle(n, dz):
    # the (x, x_ft)-only factors of the closed form drop out of the
    # normalization over k', and the package's Fourier convention conjugates it
    grid, _ = bench_grid(n)
    units = grid.unit_map
    cond = build_kernel_analytic(grid, dz).cond_array()
    cam = units.ft_plane_coordinate(grid.momenta)
    x_axis = grid.coords - grid.x0
    oracle = np.empty((n, n, n), dtype=complex)
    for j in range(n):
        for m in range(n):
            for kp in range(n):
                oracle[j, m, kp] = np.conj(analytic_kernel_term(
                    x_axis[m], cam[kp], cam[j], dz, units.wavelength, units.focal_length))
    oracle /= oracle.sum(axis=0)
    assert np.max(np.abs(cond - oracle)) < 1e-6 * np.max(np.abs(cond))


def test_analytic_kernel_rejects_dz_zero():
    grid = _unit_grid()
    with pytest.raises(DegenerateKernelError):
        build_kernel_analytic(grid, 0.0)
    with pytest.raises(ConfigError):
        build_kernel_analytic(make_grid(16, 0.5), 0.1)


def test_analytic_kernel_completeness_by_construction():
    rng = np.random.default_rng(6)
    n, f, lam, dx = 8, 1.0, 780e-9, 1e-3
    grid = make_grid(n, dx, 0.0, UnitMap(lam, f, 1.0))
    kernel = build_kernel_analytic(grid, f ** 2 * lam / (n * dx ** 2))
    assert kernel.kind == KIND_ANALYTIC
    cond = kernel.cond_array()
    assert np.max(np.abs(cond.sum(axis=0) - 1.0)) < 1e-10
    d = dirac_distribution(random_density_matrix(grid, rng))
    e = bayes_propagate(d, kernel)
    assert abs(e.e.sum() - 1.0) < 1e-9
    assert np.max(np.abs(e.e.sum(axis=1) - d.d.sum(axis=1))) < 1e-9


def _kernel_distance(scale, n=64):
    # fixed dimensionless Fresnel geometry; dz is the lattice-commensurate
    # displacement where the sampled wavelet quadrature is faithful
    f, lam = 1.0, 780e-9
    dx = 1.0e-3 * scale
    grid = make_grid(n, dx, 0.0, UnitMap(lam, f, 1.0))
    amp = np.exp(-(grid.coords / (n * dx / 8)) ** 2)
    d = dirac_distribution(density_from_pure(pure_from_samples(grid, amp)))
    dz = f ** 2 * lam / (n * dx ** 2)
    e_unitary = bayes_propagate(d, build_kernel_unitary(
        grid, fresnel_unitary(grid, dz), dz)).e
    e_analytic = bayes_propagate(d, build_kernel_analytic(grid, dz)).e
    return np.linalg.norm(e_analytic - e_unitary) / np.linalg.norm(e_unitary)


def test_analytic_agrees_with_unitary_and_improves_paraxially():
    distances = [_kernel_distance(s) for s in (2.0, 1.0, 0.5)]
    assert distances[0] < 5e-3
    assert distances[0] > distances[1] > distances[2]
    # quadratic falloff with the aperture angle
    assert distances[0] / distances[1] == pytest.approx(4.0, rel=0.2)
    assert distances[1] / distances[2] == pytest.approx(4.0, rel=0.2)


def test_joint4_identity_collapse():
    rng = np.random.default_rng(7)
    grid = _unit_grid(8)
    rho = random_density_matrix(grid, rng)
    d = dirac_distribution(rho)
    eye = np.eye(8)
    for m in (1, 4):
        for k in (0, 5):
            assert abs(joint4(rho, m, m, k, k, eye, eye) - d.d[m, k]) < 1e-12


def test_joint4_tensor_sums():
    rng = np.random.default_rng(8)
    grid = _unit_grid(8)
    rho = random_density_matrix(grid, rng)
    v1, v2 = random_unitary(8, rng), random_unitary(8, rng)
    tensor = joint4_tensor(rho, v1, v2)
    assert abs(tensor.sum() - 1.0) < 1e-10
    # (x, p) marginal reproduces the two-projector expectation
    marg = tensor.sum(axis=(0, 3))
    q_basis = v1.conj().T
    k_basis = v2.conj().T @ grid.overlap_matrix
    for b in range(8):
        for c in range(8):
            pq = np.outer(q_basis[:, b], q_basis[:, b].conj())
            pk = np.outer(k_basis[:, c], k_basis[:, c].conj())
            assert abs(marg[b, c] - np.trace(pk @ pq @ rho.rho)) < 1e-10
    assert abs(joint4(rho, 1, 2, 3, 4, v1, v2) - tensor[1, 2, 3, 4]) < 1e-14


def test_joint4_tensor_takes_a_chirp_vector():
    rng = np.random.default_rng(11)
    grid = _unit_grid(8)
    rho = random_density_matrix(grid, rng)
    chirp = fresnel_unitary(grid, 0.16)
    other = random_unitary(8, rng)
    for v1, v2 in ((other, chirp), (chirp, other), (chirp, fresnel_unitary(grid, 0.325))):
        tensor = joint4_tensor(rho, v1, v2)
        dense = joint4_tensor(rho, *(np.diag(v) if v.ndim == 1 else v for v in (v1, v2)))
        assert np.max(np.abs(tensor - dense)) < 1e-15
        assert abs(tensor.sum() - 1.0) < 1e-12


def test_joint4_tensor_rejects_bad_unitaries():
    rng = np.random.default_rng(12)
    grid = _unit_grid(8)
    rho = random_density_matrix(grid, rng)
    good = random_unitary(8, rng)
    nan_chirp = fresnel_unitary(grid, 0.16)
    nan_chirp[2] = np.nan
    nan_dense = good.copy()
    nan_dense[1, 5] = np.nan
    for bad in (np.eye(7), np.ones((8, 8)), np.ones(9), nan_chirp, nan_dense):
        for v1, v2 in ((bad, good), (good, bad)):
            with pytest.raises(ContractError):
                joint4_tensor(rho, v1, v2)


def test_propagated_validate_rejects_nan():
    grid = _unit_grid(4)
    one_nan = np.full((4, 4), 1 / 16, dtype=complex)
    one_nan[1, 2] = np.nan
    for e in (np.full((4, 4), np.nan, dtype=complex), one_nan):
        with pytest.raises((ContractError, NumericalIntegrityError)):
            PropagatedDistribution(grid=grid, dz=0.1, e=e, kind="measured").validate()
    PropagatedDistribution(grid=grid, dz=0.1, e=np.full((4, 4), 1 / 16 + 0j),
                           kind="measured").validate()


def test_direct_measure_displaced_matches_scan_at_zero():
    rng = np.random.default_rng(9)
    grid = _unit_grid(16)
    rho = random_density_matrix(grid, rng)
    cfg = BenchConfig(aperture_halfwidth=grid.span / 2, edge_position=grid.x0 + grid.dx,
                      photon_budget=1.0)
    prop = direct_measure_displaced(rho, cfg, 0.0)
    plain = scan(rho, cfg)
    assert np.max(np.abs(prop.e - plain.d)) < 1e-12
    assert prop.dz == 0.0


def test_direct_measure_displaced_closes_bayes_loop():
    rng = np.random.default_rng(10)
    grid = _unit_grid(16)
    rho = random_density_matrix(grid, rng)
    d = dirac_distribution(rho)
    cfg = BenchConfig(aperture_halfwidth=grid.span / 2, edge_position=grid.x0 + grid.dx,
                      photon_budget=1.0)
    for dz in (0.084, 0.325):
        kernel = build_kernel_unitary(grid, fresnel_unitary(grid, dz), dz)
        predicted = bayes_propagate(d, kernel)
        measured = direct_measure_displaced(rho, cfg, dz)
        assert np.max(np.abs(measured.e - predicted.e)) < 1e-9


def test_cond_array_memory_guard():
    grid = make_grid(512, 1e-4, 0.0, UM)
    kernel = build_kernel_unitary(grid, np.eye(512))
    with pytest.raises(ContractError):
        kernel.cond_array()
