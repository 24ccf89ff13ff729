import numpy as np
import pytest

from diracsim import (BenchConfig, ConfigError, ContractError, DegenerateInputError,
                      DensityMatrix, PureState, bench_pure_state, build_bench_state,
                      density_from_pure, dirac_distribution, make_grid, mix,
                      pure_from_samples, random_density_matrix, wedge_gradient_from_angle)
from conftest import bench_grid, phase_averaged_bench_state


def test_pure_from_samples_normalizes():
    grid = make_grid(4, 1.0)
    st = pure_from_samples(grid, np.array([2.0, 0, 0, 0]))
    assert np.allclose(st.amp, [1, 0, 0, 0], atol=1e-15)
    already = np.array([1, 1j, -1, -1j]) / 2.0
    st2 = pure_from_samples(grid, already)
    assert np.max(np.abs(st2.amp - already)) < 1e-12


def test_pure_from_samples_gaussian_norm():
    grid = make_grid(64, 0.2)
    raw = np.exp(-grid.coords ** 2) * np.exp(0.3j * grid.coords)
    st = pure_from_samples(grid, raw)
    assert abs(np.sum(np.abs(st.amp) ** 2) - 1.0) < 1e-12


def test_pure_from_samples_rejects_zero():
    grid = make_grid(4, 1.0)
    with pytest.raises(DegenerateInputError):
        pure_from_samples(grid, np.zeros(4))


def test_density_from_pure_basics():
    grid = make_grid(4, 1.0)
    e0 = density_from_pure(pure_from_samples(grid, np.array([1.0, 0, 0, 0])))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(e0.rho, expected, atol=1e-15)

    grid2 = make_grid(2, 1.0)
    uniform = density_from_pure(pure_from_samples(grid2, np.ones(2)))
    assert np.allclose(uniform.rho, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_density_from_pure_is_rank_one():
    rng = np.random.default_rng(0)
    grid = make_grid(16, 0.5)
    raw = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    rho = density_from_pure(pure_from_samples(grid, raw))
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


def test_mix_identity_and_two_site():
    grid = make_grid(4, 1.0)
    s0 = density_from_pure(pure_from_samples(grid, np.array([1.0, 0, 0, 0])))
    s1 = density_from_pure(pure_from_samples(grid, np.array([0, 1.0, 0, 0])))
    same = mix([(s0, 1.0)])
    assert np.allclose(same.rho, s0.rho, atol=1e-15)
    half = mix([(s0, 0.5), (s1, 0.5)])
    assert np.allclose(np.diag(half.rho), [0.5, 0.5, 0, 0], atol=1e-15)
    assert half.purity() == pytest.approx(0.5, abs=1e-12)


def test_mix_contract_errors():
    grid = make_grid(4, 1.0)
    s0 = density_from_pure(pure_from_samples(grid, np.array([1.0, 0, 0, 0])))
    with pytest.raises(ConfigError):
        mix([(s0, 0.6), (s0, 0.6)])
    with pytest.raises(ConfigError):
        mix([(s0, -0.5), (s0, 1.5)])
    other = make_grid(4, 2.0)
    s_other = density_from_pure(pure_from_samples(other, np.array([1.0, 0, 0, 0])))
    with pytest.raises(ContractError):
        mix([(s0, 0.5), (s_other, 0.5)])
    with pytest.raises(ConfigError):
        mix([])


def test_pure_bench_tophat_constant_inside_support():
    grid, cfg = bench_grid(n=64, edge_loss=0.0, static_phase_step=0.0)
    rho = build_bench_state(cfg, grid)
    inside = np.abs(grid.coords - grid.x0) <= cfg.aperture_halfwidth
    block = rho.rho[np.ix_(inside, inside)]
    assert np.max(np.abs(block - block[0, 0])) < 1e-12
    rho.validate()


def test_mixed_bench_zeroes_cross_edge_blocks():
    grid, cfg = bench_grid(n=64, mixed=True)
    rho = build_bench_state(cfg, grid)
    beyond = grid.coords > cfg.edge_position
    cross = np.logical_xor.outer(beyond, beyond)
    assert np.max(np.abs(rho.rho[cross])) == 0.0
    rho.validate()


def test_phase_average_matches_block_zeroing():
    grid, cfg = bench_grid(n=64, mixed=True)
    block = build_bench_state(cfg, grid)
    averaged = phase_averaged_bench_state(cfg, grid, samples=64)
    assert np.max(np.abs(block.rho - averaged.rho)) < 1e-10


def test_mixed_purity_below_pure():
    grid, cfg_mixed = bench_grid(n=64, mixed=True)
    _, cfg_pure = bench_grid(n=64, mixed=False)
    mixed = build_bench_state(cfg_mixed, grid)
    pure = build_bench_state(cfg_pure, grid)
    assert mixed.purity() < pure.purity() - 0.2
    assert pure.purity() == pytest.approx(1.0, abs=1e-10)


def test_edge_dip_applied_to_nearest_site():
    grid, cfg = bench_grid(n=64, static_phase_step=0.0)
    psi = bench_pure_state(cfg, grid)
    site = int(np.argmin(np.abs(grid.coords - cfg.edge_position)))
    inside = np.abs(grid.coords - grid.x0) <= cfg.aperture_halfwidth
    ref = np.abs(psi.amp[inside][0])
    assert np.abs(psi.amp[site]) == pytest.approx((1 - cfg.edge_loss) * ref, rel=1e-12)


def test_wedge_tilt_adds_linear_phase_beyond_edge():
    grid, cfg = bench_grid(n=64, wedge_tilt=37.0, edge_loss=0.0)
    psi = bench_pure_state(cfg, grid)
    base = bench_pure_state(BenchConfig(aperture_halfwidth=cfg.aperture_halfwidth,
                                        edge_position=cfg.edge_position,
                                        edge_loss=0.0), grid)
    beyond = grid.coords > cfg.edge_position
    ratio = psi.amp[beyond] / base.amp[beyond]
    expected = np.exp(1j * 37.0 * (grid.coords[beyond] - cfg.edge_position))
    assert np.max(np.abs(ratio - expected)) < 1e-12


def test_wedge_gradient_from_angle():
    lam = 780e-9
    angle = np.deg2rad(0.4 / 3600.0)  # 0.4 arcsec
    grad = wedge_gradient_from_angle(angle, lam)
    assert grad == pytest.approx(2 * np.pi * 0.5 * angle / lam, rel=1e-12)
    assert grad > 0


def test_bench_config_validation_errors():
    grid, _ = bench_grid(n=64)
    with pytest.raises(ConfigError):
        BenchConfig(aperture_halfwidth=22e-3, edge_position=45e-3).validate(grid)
    with pytest.raises(ConfigError):
        BenchConfig(aperture_halfwidth=30e-3, edge_position=25e-3).validate(grid)
    with pytest.raises(ConfigError):
        BenchConfig(aperture_halfwidth=22e-3, edge_position=25e-3, edge_loss=1.5).validate(grid)
    with pytest.raises(ConfigError):
        BenchConfig(aperture_halfwidth=22e-3, edge_position=25e-3, phi=2.0).validate(grid)


def test_random_density_matrix_rank():
    rng = np.random.default_rng(1)
    grid = make_grid(8, 1.0)
    rho = random_density_matrix(grid, rng, rank=2)
    evals = np.sort(np.linalg.eigvalsh(rho.rho))[::-1]
    assert evals[2] < 1e-12
    rho.validate()


def _counting_eigvalsh(monkeypatch):
    calls = []
    original = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_validate_runs_eigvalsh_once_per_read_only_state(monkeypatch):
    grid, cfg = bench_grid(n=32)
    calls = _counting_eigvalsh(monkeypatch)
    rho = build_bench_state(cfg, grid)
    assert len(calls) == 1
    for _ in range(3):
        rho.validate()
        dirac_distribution(rho)
    assert len(calls) == 1
    # a writeable matrix may change between calls, so it is checked every time
    writeable = DensityMatrix(grid=grid, rho=rho.rho.copy())
    writeable.validate()
    writeable.validate()
    assert len(calls) == 3


def test_validate_rechecks_a_matrix_that_was_writeable():
    grid = make_grid(2, 1.0)
    # validated while writeable, then spoiled and frozen
    rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    state = DensityMatrix(grid=grid, rho=rho)
    state.validate()
    rho[:] = [[1.5, 0.0], [0.0, -0.5]]
    rho.setflags(write=False)
    with pytest.raises(ContractError):
        state.validate()
    # validated while read-only, then made writeable again and spoiled
    rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    rho.setflags(write=False)
    state = DensityMatrix(grid=grid, rho=rho)
    state.validate()
    rho.setflags(write=True)
    rho[:] = [[1.5, 0.0], [0.0, -0.5]]
    with pytest.raises(ContractError):
        state.validate()


def test_invalid_state_raises_on_every_call():
    grid = make_grid(2, 1.0)
    not_psd = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
    not_hermitian = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
    for rho in (not_psd, not_hermitian):
        rho.setflags(write=False)
        state = DensityMatrix(grid=grid, rho=rho)
        for _ in range(3):
            with pytest.raises(ContractError):
                state.validate()


def test_validate_rejects_nan_before_eigvalsh(monkeypatch):
    grid = make_grid(4, 1.0)
    calls = _counting_eigvalsh(monkeypatch)
    for i, j in ((0, 0), (1, 2)):
        rho = np.eye(4, dtype=complex) / 4
        rho[i, j] = np.nan
        with pytest.raises(ContractError):
            DensityMatrix(grid=grid, rho=rho).validate()
    assert calls == []
    with pytest.raises(ContractError):
        PureState(grid=grid, amp=np.full(4, np.nan, dtype=complex)).validate()
