import numpy as np
import pytest

from diracsim import ConfigError, ContractError, UnitMap, from_momentum, make_grid, overlap, to_momentum


def test_dp_forced_by_lattice_identity():
    assert make_grid(8, 1.0).dp == pytest.approx(np.pi / 4, abs=1e-15)
    assert make_grid(2, 0.5).dp == pytest.approx(2 * np.pi, abs=1e-15)


def test_reference_bench_aperture_grid():
    grid = make_grid(256, 44e-3 / 256, 22e-3)
    assert grid.span == pytest.approx(44e-3, abs=1e-18)
    assert grid.dp * grid.dx * grid.n == pytest.approx(2 * np.pi, abs=1e-12)


def test_make_grid_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        make_grid(1, 1.0)
    with pytest.raises(ConfigError):
        make_grid(8, 0.0)
    with pytest.raises(ConfigError):
        make_grid(8, -0.5)
    with pytest.raises(ConfigError):
        make_grid(2.5, 1.0)
    with pytest.raises(ConfigError, match="spacing"):
        make_grid(8, np.inf)
    with pytest.raises(ConfigError, match="x0"):
        make_grid(8, 0.5, np.nan)
    for bad in (UnitMap(np.nan, 1.0), UnitMap(780e-9, np.inf), UnitMap(780e-9, 1.0, -2.0)):
        with pytest.raises(ConfigError, match="wavelength|focal_length|magnification"):
            make_grid(8, 0.5, 0.0, bad)


def test_coordinate_indexing_is_invertible():
    grid = make_grid(16, 0.3, 1.7)
    x = grid.coords
    assert x[8] == pytest.approx(1.7)
    m_back = np.rint((x - grid.x0) / grid.dx + grid.n / 2).astype(int)
    assert np.array_equal(m_back, np.arange(16))
    p = grid.momenta
    k_back = np.rint(p / grid.dp + grid.n / 2).astype(int)
    assert np.array_equal(k_back, np.arange(16))


def test_overlap_modulus_and_zero_phase_row():
    grid = make_grid(4, 1.0)
    for m in range(4):
        for k in range(4):
            assert abs(overlap(grid, m, k)) ** 2 == pytest.approx(0.25, abs=1e-14)
    # x = 0 sits at index n/2; its overlap row is real 1/sqrt(n)
    for k in range(4):
        assert overlap(grid, 2, k) == pytest.approx(0.5, abs=1e-14)


def test_overlap_index_contract():
    grid = make_grid(4, 1.0)
    with pytest.raises(ContractError):
        overlap(grid, 4, 0)
    with pytest.raises(ContractError):
        overlap(grid, 0, -1)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 64, 256, 512])
def test_dft_unitarity(n):
    grid = make_grid(n, 0.37, 0.11)
    u = grid.overlap_matrix
    defect = np.max(np.abs(u.conj().T @ u - np.eye(n)))
    assert defect < 1e-12


def test_momentum_transform_of_delta_is_flat():
    grid = make_grid(8, 1.0)
    v = np.zeros(8, dtype=complex)
    v[3] = 1.0
    vt = to_momentum(grid, v)
    assert np.allclose(np.abs(vt), 1 / np.sqrt(8), atol=1e-14)


def test_momentum_round_trip_and_norm():
    rng = np.random.default_rng(5)
    grid = make_grid(32, 0.25, -0.4)
    for _ in range(5):
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        vt = to_momentum(grid, v)
        assert abs(np.linalg.norm(vt) - np.linalg.norm(v)) < 1e-12
        assert np.max(np.abs(from_momentum(grid, vt) - v)) < 1e-12


def test_vector_length_contract():
    grid = make_grid(8, 1.0)
    with pytest.raises(ContractError):
        to_momentum(grid, np.ones(7))
    for bad in (np.ones((8, 7)), np.ones(9), 1.0):
        with pytest.raises(ContractError):
            grid.matmul_overlap(bad)
        with pytest.raises(ContractError):
            grid.matmul_overlap_adjoint(bad)


def test_unit_map_round_trip():
    um = UnitMap(wavelength=780e-9, focal_length=1.0, magnification=4.935)
    grid = make_grid(64, 44e-3 / 64, 22e-3, um)
    p = grid.momenta
    back = um.momentum_from_camera(um.camera_coordinate(p))
    assert np.max(np.abs(back - p)) < 1e-12 * np.max(np.abs(p))
    assert um.camera_coordinate(1.0) == pytest.approx(4.935 * um.ft_plane_coordinate(1.0))
