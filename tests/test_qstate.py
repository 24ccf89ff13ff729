import re

import numpy as np
import pytest

from diracsim import (BenchConfig, ConfigError, ContractError, DegenerateInputError,
                      DensityMatrix, PureState, bench_pure_state, build_bench_state,
                      density_from_pure, dirac_distribution, make_grid, mix,
                      pure_from_samples, purity, random_density_matrix,
                      wedge_gradient_from_angle)
from diracsim import cli, qstate
from diracsim.fileio import grid_meta, write_matrix
from diracsim.qstate import PSD_TOL
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


@pytest.mark.parametrize("raw, want", [
    ([1e200, 1e200, 0, 0], [1, 1, 0, 0]),  # the norm overflows to inf
    ([1e-170, 1e-170, 0, 0], [1, 1, 0, 0]),  # the norm underflows to 0
    ([1e308 + 1e308j, -1e308, 0, 0], [1 + 1j, -1, 0, 0]),  # so does |1e308 + 1e308j|
    ([5e-324, -5e-324j, 0, 0], [1, -1j, 0, 0]),  # 1 / 5e-324 overflows
])
def test_pure_from_samples_normalizes_samples_at_the_float_extremes(raw, want):
    # with no warning: the suite turns every warning into an error
    grid = make_grid(4, 1.0)
    amp = pure_from_samples(grid, np.array(raw, dtype=complex)).amp
    assert np.max(np.abs(amp - np.array(want) / np.linalg.norm(want))) <= 1e-15


def test_pure_from_samples_divides_ordinary_samples_by_their_norm_alone():
    raw = np.random.default_rng(3).standard_normal(64) * 1e-3 + 2j
    amp = pure_from_samples(make_grid(64, 0.2), raw).amp
    assert np.array_equal(amp, raw / np.linalg.norm(raw))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_pure_from_samples_rejects_non_finite_samples_before_dividing(bad):
    raw = np.ones(4, dtype=complex)
    raw[2] = bad
    # under the suite's warnings-as-errors, a division by a NaN norm would raise first
    with pytest.raises(ContractError, match=r"^sample vector is not finite$"):
        pure_from_samples(make_grid(4, 1.0), raw)


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
    assert purity(dirac_distribution(rho)) == pytest.approx(1.0, abs=1e-12)


def test_mix_identity_and_two_site():
    grid = make_grid(4, 1.0)
    s0 = density_from_pure(pure_from_samples(grid, np.array([1.0, 0, 0, 0])))
    s1 = density_from_pure(pure_from_samples(grid, np.array([0, 1.0, 0, 0])))
    same = mix([(s0, 1.0)])
    assert np.allclose(same.rho, s0.rho, atol=1e-15)
    half = mix([(s0, 0.5), (s1, 0.5)])
    assert np.allclose(np.diag(half.rho), [0.5, 0.5, 0, 0], atol=1e-15)
    assert purity(dirac_distribution(half)) == pytest.approx(0.5, abs=1e-12)


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
    for weights in ((np.nan, 1.0), (np.inf, 1.0), (0.5, -np.inf), (np.nan, np.nan)):
        with pytest.raises(ConfigError, match="mixture weights"):
            mix([(s0, weights[0]), (s0, weights[1])])


def test_pure_bench_tophat_constant_inside_support():
    grid, cfg = bench_grid(n=64, edge_loss=0.0, static_phase_step=0.0)
    rho = build_bench_state(cfg, grid)
    inside = np.abs(grid.coords - grid.x0) <= cfg.aperture_halfwidth
    block = rho.rho[np.ix_(inside, inside)]
    assert np.max(np.abs(block - block[0, 0])) < 1e-12
    rho.validate()


def test_mixed_bench_zeroes_cross_edge_blocks():
    for n in (9, 32, 64, 97, 256):
        grid, cfg = bench_grid(n=n, mixed=True, wedge_tilt=285.6)
        rho = build_bench_state(cfg, grid)
        beyond = grid.coords > cfg.edge_position
        cross = np.logical_xor.outer(beyond, beyond)
        assert np.max(np.abs(rho.rho[cross])) == 0.0
        # bit for bit |psi><psi| of the pure bench state with the cross blocks zeroed
        expected = density_from_pure(bench_pure_state(cfg, grid)).rho.copy()
        assert np.count_nonzero(expected[cross]) > 0
        expected[cross] = 0.0
        assert np.array_equal(rho.rho, expected)
        assert not rho.rho.flags.writeable
        rho.validate()


def test_phase_average_matches_block_zeroing():
    grid, cfg = bench_grid(n=64, mixed=True)
    block = build_bench_state(cfg, grid)
    averaged = phase_averaged_bench_state(cfg, grid, samples=64)
    assert np.max(np.abs(block.rho - averaged.rho)) < 1e-10


def test_mixed_purity_below_pure():
    grid, cfg_mixed = bench_grid(n=64, mixed=True)
    _, cfg_pure = bench_grid(n=64, mixed=False)
    mixed = purity(dirac_distribution(build_bench_state(cfg_mixed, grid)))
    pure = purity(dirac_distribution(build_bench_state(cfg_pure, grid)))
    assert mixed < pure - 0.2
    assert pure == pytest.approx(1.0, abs=1e-10)


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


def _counting(monkeypatch, name):
    """Record the shape of every argument passed to ``np.linalg.<name>``."""
    calls = []
    original = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_validate_certifies_once_per_read_only_state(monkeypatch, tmp_path):
    factorisations = _counting(monkeypatch, "cholesky")
    eig_runs = _counting(monkeypatch, "eigvalsh")
    for mixed in (False, True):
        grid, cfg = bench_grid(n=32, mixed=mixed)
        factorisations.clear()
        # built from amplitudes, so certified by construction
        rho = build_bench_state(cfg, grid)
        density_from_pure(bench_pure_state(cfg, grid))
        assert len(factorisations) == 0
        for _ in range(3):
            rho.validate()
            dirac_distribution(rho)
        assert len(factorisations) == 0
        # a writeable matrix may change between calls, so it is checked every time
        writeable = DensityMatrix(grid=grid, rho=rho.rho.copy())
        writeable.validate()
        writeable.validate()
        assert len(factorisations) == 2
        # a state read from a file is checked in full, once
        path = str(tmp_path / f"state_{mixed}.txt")
        write_matrix(path, rho.rho, {"kind": "density", **grid_meta(grid)})
        factorisations.clear()
        read = cli._read_state(path)
        for _ in range(3):
            read.validate()
            dirac_distribution(read)
        assert len(factorisations) == 1
    assert eig_runs == []


def _built_cases():
    """(grid, cfg) of the bench constructors' oracle grid, plus one off-centre grid."""
    for n in (2, 3, 63, 64):
        for mixed in (False, True):
            for wedge_tilt in (0.0, 285.6):
                for edge_loss in (0.0, 0.3, 1.0):
                    yield bench_grid(n=n, mixed=mixed, wedge_tilt=wedge_tilt,
                                     edge_loss=edge_loss)
    for mixed in (False, True):
        yield make_grid(64, 0.05, -0.7), BenchConfig(aperture_halfwidth=1.2, edge_position=-0.5,
                                                     wedge_tilt=7.3, mixed=mixed)


def test_built_states_pass_the_full_check(monkeypatch):
    """The constructors certify by construction; a writeable copy of each
    output passes the full check of ``validate`` (Cholesky included)."""
    factorisations = _counting(monkeypatch, "cholesky")
    eig_runs = _counting(monkeypatch, "eigvalsh")
    cases = 0
    for grid, cfg in _built_cases():
        built = [build_bench_state(cfg, grid)]
        if not cfg.mixed:
            built.append(density_from_pure(bench_pure_state(cfg, grid)))
        assert factorisations == []
        for state in built:
            assert not state.rho.flags.writeable
            DensityMatrix(grid=grid, rho=state.rho.copy()).validate()
            assert len(factorisations) == 1
            factorisations.clear()
            cases += 1
    assert cases == 4 * 3 * 3 * 2 + 3
    assert eig_runs == []


@pytest.mark.parametrize("mixed", [False, True])
def test_build_bench_state_holds_one_matrix(mixed):
    """At n = 512 the state build peaks at most 1.25 matrices above its
    start: it holds the state itself and no n x n temporary."""
    import tracemalloc

    grid, cfg = bench_grid(n=512, mixed=mixed, wedge_tilt=285.6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rho = build_bench_state(cfg, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * rho.rho.nbytes, peak / rho.rho.nbytes


def test_the_construction_certificate_still_checks_shape_and_trace():
    grid = make_grid(4, 1.0)
    with pytest.raises(ContractError, match=r"^density matrix shape does not match grid$"):
        qstate._built_state(grid, np.eye(3, dtype=complex) / 3)
    with pytest.raises(ContractError, match=r"^density matrix trace .* deviates from 1$"):
        qstate._built_state(grid, np.eye(4, dtype=complex) / 2)


def _state_with_lowest_eigenvalue(n, lowest, seed):
    """Hermitian trace-one matrix with a random eigenbasis and smallest eigenvalue ``lowest``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    rest = rng.uniform(0.5, 1.5, n - 1)
    evals = np.concatenate(([lowest], rest * (1.0 - lowest) / rest.sum()))
    rho = (q * evals) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("n", [2, 16, 64, 256])
def test_psd_verdict_matches_eigvalsh_at_the_boundary(monkeypatch, n):
    grid = make_grid(n, 1.0)
    eig_runs = _counting(monkeypatch, "eigvalsh")
    inside = _state_with_lowest_eigenvalue(n, -PSD_TOL * (1 - 1e-3), seed=n)
    DensityMatrix(grid=grid, rho=inside).validate()
    assert eig_runs == []
    outside = _state_with_lowest_eigenvalue(n, -PSD_TOL * (1 + 1e-3), seed=n)
    with pytest.raises(ContractError, match=r"eigenvalue -1\.001e-09 < -1e-09"):
        DensityMatrix(grid=grid, rho=outside).validate()
    assert len(eig_runs) == 1


def test_failed_cholesky_defers_to_eigvalsh(monkeypatch):
    def refuse(a, *args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    eig_runs = _counting(monkeypatch, "eigvalsh")
    grid = make_grid(4, 1.0)
    DensityMatrix(grid=grid, rho=np.eye(4, dtype=complex) / 4).validate()
    assert len(eig_runs) == 1


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


def test_validate_rechecks_a_read_only_view_of_a_writeable_array():
    grid = make_grid(2, 1.0)
    base = np.eye(2, dtype=complex) / 2
    view = base.view()
    view.setflags(write=False)
    state = DensityMatrix(grid=grid, rho=view)
    state.validate()
    base[:] = np.eye(2) / 4  # the view reads the change: trace 0.5
    with pytest.raises(ContractError, match=r"^density matrix trace .* deviates from 1$"):
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
    calls = _counting(monkeypatch, "eigvalsh")
    factorisations = _counting(monkeypatch, "cholesky")
    for i, j in ((0, 0), (1, 2)):
        rho = np.eye(4, dtype=complex) / 4
        rho[i, j] = np.nan
        with pytest.raises(ContractError):
            DensityMatrix(grid=grid, rho=rho).validate()
    assert calls == []
    assert factorisations == []
    with pytest.raises(ContractError):
        PureState(grid=grid, amp=np.full(4, np.nan, dtype=complex)).validate()


def test_shapes_that_do_not_match_the_grid_are_contract_errors():
    grid = make_grid(4, 1.0)
    with pytest.raises(ContractError, match=r"^amplitude length does not match grid$"):
        PureState(grid=grid, amp=np.full(3, 1 / np.sqrt(3), dtype=complex))
    with pytest.raises(ContractError, match=r"^density matrix shape does not match grid$"):
        DensityMatrix(grid=grid, rho=np.eye(3, dtype=complex) / 3)
    with pytest.raises(ContractError,
                       match=r"^sample vector of shape \(5,\) does not match grid n=4$"):
        pure_from_samples(grid, np.ones(5))


def test_an_aperture_between_lattice_sites_is_a_config_error():
    grid = make_grid(5, 1.0)  # odd n: the sites nearest x0 = 0 lie dx/2 from it
    cfg = BenchConfig(aperture_halfwidth=0.4, edge_position=0.0)
    with pytest.raises(ConfigError, match=r"^aperture contains no lattice site$"):
        bench_pure_state(cfg, grid)


@pytest.mark.parametrize("rank", [0, 5, 1.5, True, np.float64(2.0)])
def test_random_density_matrix_rejects_a_rank_out_of_range(rank):
    message = rf"^rank {re.escape(repr(rank))} is not an integer in \[1, 4\]$"
    with pytest.raises(ConfigError, match=message):
        random_density_matrix(make_grid(4, 1.0), np.random.default_rng(0), rank)
