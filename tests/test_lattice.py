import numpy as np
import pytest

from diracsim import ConfigError, ContractError, Grid, UnitMap, make_grid
from diracsim.lattice import MAX_N


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


def test_make_grid_refuses_a_size_numpy_cannot_shape_before_any_array():
    """n x n complex128 must fit ``np.intp``: at the parent n = 10**21 got
    through and ``Grid.coords`` raised numpy's ValueError.  Every size tried
    here is refused in scalars, so the test allocates no array."""
    import tracemalloc

    assert MAX_N ** 2 * 16 <= np.iinfo(np.intp).max < (MAX_N + 1) ** 2 * 16
    tracemalloc.start()
    try:
        for n in (MAX_N + 1, 10 ** 21, 10 ** 400, np.int64(2 ** 62)):
            with pytest.raises(ConfigError, match=r"^n: grid size must be an integer in \[2, "):
                make_grid(n, 1e-9)
        grid = make_grid(MAX_N, 1e-9)  # the largest size is taken, and nothing is built
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.n == MAX_N and not {"coords", "momenta", "overlap_matrix"} & vars(grid).keys()
    assert peak < 2 ** 16


@pytest.mark.parametrize("n, dx, x0", [
    (16, 1e308, 0.0),  # the span n dx overflows
    (2, 1e308, 0.0),  # the span overflows, the coordinates alone would not
    (16, 1e306, 1.79e308),  # the last coordinate overflows
    (16, 1e306, -1.79e308),  # the first coordinate overflows
    (2, 5e-324, 0.0),  # dp = 2 pi / (n dx) overflows
    (16, 1e-308, 0.0),  # dp is finite, the largest momentum (n/2) dp is not
])
def test_make_grid_refuses_coordinates_or_momenta_that_are_not_finite(n, dx, x0):
    """At the parent dx = 1e308 printed RuntimeWarnings in ``gen-state``
    before a misleading "sample vector is not finite"."""
    with pytest.raises(ConfigError, match=r"^dx, x0: .* finite coordinates and momenta"):
        make_grid(n, dx, x0)


@pytest.mark.parametrize("lam, f", [(1e-320, 1.0), (780e-9, 1e308), (1e-300, 1e200),
                                    (1e-200, 1e-100)])
def test_make_grid_refuses_a_chirp_scale_that_is_not_a_normal_float(lam, f):
    """lambda f^2 scales every Fresnel chirp.  At the parent f = 1e308 raised
    OverflowError in ``fresnel_unitary``, and lambda = 1e-320 printed
    warnings before "matrix is not unitary (defect nan)".  (1e-300, 1e200):
    lambda f f is finite but f^2 is not; (1e-200, 1e-100): it underflows."""
    with pytest.raises(ConfigError, match=r"^wavelength, focal_length, magnification: "):
        make_grid(16, 0.5, 0.0, UnitMap(lam, f))


@pytest.mark.parametrize("lam, f, magnification", [(1e308, 1.0, 1.0), (1e3, 1.0, 1e308),
                                                   (1e-10, 1e150, 1e308)])
def test_make_grid_refuses_a_camera_coordinate_that_is_not_finite(lam, f, magnification):
    """The ``figures`` axis of a propagated file reaches M p f lambda / 2 pi
    at p = -(n/2) dp.  At the parent it overflowed with a RuntimeWarning and
    the table's axis read -inf and inf."""
    with pytest.raises(ConfigError, match=r"camera edge -?inf finite$"):
        make_grid(16, 0.5, 0.0, UnitMap(lam, f, magnification))


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
    u = make_grid(4, 1.0).overlap_matrix
    assert np.allclose(np.abs(u) ** 2, 0.25, rtol=0, atol=1e-14)
    # x = 0 sits at index n/2; its overlap row is real 1/sqrt(n)
    assert np.allclose(u[2], 0.5, rtol=0, atol=1e-14)


def test_a_grid_built_directly_is_the_grid_make_grid_builds():
    """The constructor holds n as an int and dx, x0 as floats, as make_grid
    did, so equal parameters give equal grids of one hash."""
    grid = Grid(n=np.int64(8), dx=1, x0=np.float32(0.5))
    assert grid == make_grid(8, 1.0, 0.5) and hash(grid) == hash(make_grid(8, 1.0, 0.5))
    assert (type(grid.n), type(grid.dx), type(grid.x0)) == (int, float, float)
    assert grid != make_grid(8, 1.0, 0.25)


def test_cached_lattice_arrays_are_read_only():
    grid = make_grid(4, 1.0)
    for arr in (grid.coords, grid.momenta, grid.overlap_matrix):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 64, 256, 512])
def test_dft_unitarity(n):
    grid = make_grid(n, 0.37, 0.11)
    u = grid.overlap_matrix
    defect = np.max(np.abs(u.conj().T @ u - np.eye(n)))
    assert defect < 1e-12


@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_skew_and_unskew_index_the_lag(n):
    grid = make_grid(n, 1.0)
    a = np.arange(n * n).reshape(n, n) * (1 + 1j)
    g = grid.skew(a)
    idx = np.arange(n)
    assert np.array_equal(g, a[idx[:, None], (idx[:, None] + idx) % n])  # g[m, s] = a[m, m + s]
    assert np.array_equal(grid.unskew(g), a)
    for view in (g, grid.unskew(a)):
        assert not view.flags.writeable


@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_skew_and_unskew_of_a_row_block_index_the_lag(n):
    grid = make_grid(n, 1.0)
    a = np.arange(n * n).reshape(n, n) * (1 + 1j)
    whole = grid.skew(a)
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            g = grid.skew(a[lo:hi], lo)
            assert np.array_equal(g, whole[lo:hi])  # g[i, s] = a[lo + i, lo + i + s]
            assert np.array_equal(grid.unskew(g, lo), a[lo:hi])
            assert not g.flags.writeable


def test_skew_shape_contract():
    grid = make_grid(8, 1.0)
    for bad, lo in ((np.ones((8, 9)), 0), (np.ones((9, 8)), 0), (np.ones(8), 0),
                    (np.ones((2, 8, 8)), 0), (np.ones((3, 8)), 6), (np.ones((1, 8)), -1),
                    (np.ones((1, 8)), 8)):
        with pytest.raises(ContractError):
            grid.skew(bad, lo)
        with pytest.raises(ContractError):
            grid.unskew(bad, lo)


def test_unit_map_round_trip():
    um = UnitMap(wavelength=780e-9, focal_length=1.0, magnification=4.935)
    assert um.camera_coordinate(1.0) == pytest.approx(4.935 * um.ft_plane_coordinate(1.0))
