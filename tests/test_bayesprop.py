import re

import numpy as np
import pytest

from diracsim import (ConfigError, ContractError, DegenerateKernelError, UnitMap,
                      bayes_propagate, build_kernel_analytic, build_kernel_unitary,
                      density_from_pure, dirac_distribution, direct_measure_displaced,
                      fresnel_unitary, joint4_tensor, make_grid, operator_dirac,
                      pure_from_samples, random_density_matrix, scan)
from diracsim import (BenchConfig, NumericalIntegrityError, PropagatedDistribution,
                      PropagatorKernel)
from diracsim import bayesprop, lattice
from diracsim.bayesprop import KIND_ANALYTIC, KIND_UNITARY
from diracsim.lattice import TWO_PI
from conftest import (analytic_kernel_term, analytic_lens, bench_grid, cond_array,
                      dense_wavelet, displaced_trace_oracle, joint4, random_unitary)

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


@pytest.mark.parametrize("dz", [1e308, 1e306])
def test_fresnel_unitary_refuses_a_chirp_phase_that_is_not_finite(dz):
    """pi dz x^2 / (lambda f^2) overflows.  At the parent propagate printed
    RuntimeWarnings, then "matrix is not unitary (defect nan)"; a warning is
    an error here, so none may be printed."""
    grid = make_grid(256, 44e-3 / 256, 22e-3, UM)
    with pytest.raises(ConfigError, match=re.escape(f"camera displacement dz {dz!r}: the chirp")):
        fresnel_unitary(grid, dz)
    assert np.isfinite(fresnel_unitary(grid, 1e10)).all()


def _long_double_chirp(grid, dz):
    """exp(i phi) and max |phi|, phi = -pi dz x^2 / (lambda f^2) with x = (m - n/2) dx
    measured from the grid center, in extended precision from the grid's floats.
    2 pi is 8 arctan(1), and phi is reduced mod 2 pi before cos and sin."""
    ld = np.longdouble
    two_pi = 8 * np.arctan(ld(1))
    x = (np.arange(grid.n, dtype=ld) - ld(grid.n) / 2) * ld(grid.dx)
    units = grid.unit_map
    phi = -(two_pi / 2) * ld(dz) * x ** 2 / (ld(units.wavelength) * ld(units.focal_length) ** 2)
    turned = np.fmod(phi, two_pi)
    return np.cos(turned) + 1j * np.sin(turned), np.max(np.abs(phi))


@pytest.mark.parametrize("n", [2, 63, 64, 256, 1024])
@pytest.mark.parametrize("x0", [0.0, 22e-3, -3.0])
def test_chirp_matches_a_long_double_oracle(n, x0):
    """The chirp is formed from exact lattice offsets and one scalar scale,
    so its error is a few roundings of the phase, whatever x0 is.  Formed
    from (coords - x0)^2 it read 83 eps max |phi| at x0 = -3."""
    assert np.finfo(np.longdouble).eps < 1e-18  # 80-bit extended precision
    grid = make_grid(n, 44e-3 / n, x0, UM)
    eps = np.finfo(float).eps
    assert np.array_equal(fresnel_unitary(grid, 0.0), np.ones(n))
    for dz in (0.0, 0.084, 0.16, 0.325, 1.0):
        want, phi_max = _long_double_chirp(grid, dz)
        error = np.max(np.abs(fresnel_unitary(grid, dz) - want))
        assert error <= 2 * eps * max(phi_max, 1), (dz, float(error / (eps * max(phi_max, 1))))


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
    cond = cond_array(kernel)
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
    with pytest.raises(ConfigError, match="must be finite and nonnegative"):
        direct_measure_displaced(random_density_matrix(grid, np.random.default_rng(0)),
                                 BenchConfig(aperture_halfwidth=grid.span / 2,
                                             edge_position=grid.x0 + grid.dx), np.nan)


def test_unitary_kernel_keeps_its_messages_and_their_order():
    grid = _unit_grid(8)
    with pytest.raises(ConfigError, match="dz -1.0 must be finite"):  # dz before the shape
        build_kernel_unitary(grid, np.eye(7), -1.0)
    with pytest.raises(ContractError,
                       match=re.escape("unitary shape (7, 7) does not match grid n=8")):
        build_kernel_unitary(grid, np.eye(7))
    with pytest.raises(ContractError, match=re.escape("matrix is not unitary (defect 8.000e+00)")):
        build_kernel_unitary(grid, np.ones((8, 8)))


def test_a_dense_v_is_checked_once_per_kernel(monkeypatch):
    grid = _unit_grid(8)
    calls = []
    checked = bayesprop._checked_unitary
    monkeypatch.setattr(bayesprop, "_checked_unitary",
                        lambda g, v: calls.append(v.shape) or checked(g, v))
    kernel = build_kernel_unitary(grid, random_unitary(8, np.random.default_rng(3)))
    d = dirac_distribution(random_density_matrix(grid, np.random.default_rng(4)))
    bayes_propagate(d, kernel)
    bayes_propagate(d, kernel)
    assert calls == [(8, 8)]


_ROW = build_kernel_analytic(_unit_grid(8), 0.084).row
_STRINGS = np.array(["a"] * 8)  # numpy cannot read these as complex


@pytest.mark.parametrize("fields, message", [
    ({}, "exactly one of v and row"),
    ({"v": np.ones(8), "row": _ROW}, "exactly one of v and row"),
    ({"v": np.ones(5)}, re.escape("unitary shape (5,) does not match grid n=8")),
    ({"v": 2 * np.ones(8)}, re.escape("matrix is not unitary (defect 3.000e+00)")),
    ({"row": _ROW[:5]}, re.escape("kernel row shape (5,) does not match grid n=8")),
    ({"row": np.tile(_ROW, 2)[:10]}, re.escape("kernel row shape (10,) does not match grid n=8")),
    ({"v": _STRINGS}, re.escape("unitary of dtype <U1 are not numbers")),
    ({"v": [{}] * 8}, re.escape("unitary of dtype object are not numbers")),
    ({"row": _STRINGS}, re.escape("kernel row of dtype <U1 are not numbers")),
], ids=["neither", "both", "v of 5", "v not unitary", "row of 5", "row of 10", "v of strings",
        "v of dicts", "row of strings"])
def test_a_kernel_built_directly_holds_the_builders_checks(fields, message):
    """Before the kernel checked itself, bayes_propagate met these with a
    TypeError, a numpy broadcast ValueError, an e that sums to 4, a row it
    ignored, or a UFuncTypeError."""
    with pytest.raises(ContractError, match=message):
        PropagatorKernel(grid=_unit_grid(8), dz=0.084, **fields)


@pytest.mark.parametrize("dz", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("field", ["v", "row"])
def test_a_kernel_built_directly_refuses_a_bad_dz(field, dz):
    data = {"v": np.ones(8), "row": _ROW}[field]
    with pytest.raises(ConfigError, match=re.escape(f"camera displacement dz {dz!r} must be "
                                                    f"finite and nonnegative")):
        PropagatorKernel(grid=_unit_grid(8), dz=dz, **{field: data})


def test_a_valid_kernel_built_directly_propagates_as_the_built_one():
    grid = _unit_grid(8)
    chirp = fresnel_unitary(grid, 0.16)
    d = dirac_distribution(random_density_matrix(grid, np.random.default_rng(5)))
    direct = PropagatorKernel(grid=grid, dz=0.16, v=list(chirp))
    assert np.array_equal(bayes_propagate(d, direct).e,
                          bayes_propagate(d, build_kernel_unitary(grid, chirp, 0.16)).e)


def test_a_kernel_keeps_its_own_copy_of_the_callers_array():
    """Before the kernel kept a copy, doubling v after construction made e
    sum to 4."""
    grid = _unit_grid(8)
    d = dirac_distribution(random_density_matrix(grid, np.random.default_rng(5)))
    chirp = fresnel_unitary(grid, 0.16)
    for v in (chirp.copy(), np.diag(chirp)):
        built = bayes_propagate(d, build_kernel_unitary(grid, v, 0.16)).e
        direct = PropagatorKernel(grid=grid, dz=0.16, v=v)
        v *= 2
        assert np.array_equal(bayes_propagate(d, direct).e, built)
    row = _ROW.copy()
    direct = PropagatorKernel(grid=grid, dz=0.084, row=row)
    row[:] = 1.0
    assert np.array_equal(bayes_propagate(d, direct).e,
                          bayes_propagate(d, build_kernel_analytic(grid, 0.084)).e)


def test_a_kernels_data_is_read_only_and_its_kind_follows_from_it():
    grid = _unit_grid(8)
    chirp = fresnel_unitary(grid, 0.16)
    kernels = {
        "built diagonal": (build_kernel_unitary(grid, chirp, 0.16), KIND_UNITARY),
        "built dense": (build_kernel_unitary(grid, np.diag(chirp), 0.16), KIND_UNITARY),
        "built analytic": (build_kernel_analytic(grid, 0.084), KIND_ANALYTIC),
        "direct v": (PropagatorKernel(grid=grid, dz=0.0, v=chirp), KIND_UNITARY),
        "direct row": (PropagatorKernel(grid=grid, dz=0.084, row=list(_ROW)), KIND_ANALYTIC),
    }
    for name, (kernel, kind) in kernels.items():
        data = kernel.row if kernel.v is None else kernel.v
        assert not data.flags.writeable, name
        assert data.dtype == complex, name
        assert kernel.kind == kind, name
        with pytest.raises(AttributeError):
            kernel.kind = KIND_ANALYTIC if kind == KIND_UNITARY else KIND_UNITARY


@pytest.mark.parametrize("dz", [0.0, 0.084, 0.325])
def test_diagonal_and_dense_chirp_give_the_same_kernel(dz):
    grid = _unit_grid(16)
    d = dirac_distribution(random_density_matrix(grid, np.random.default_rng(13)))
    chirp = fresnel_unitary(grid, dz)
    diagonal = build_kernel_unitary(grid, chirp, dz)
    dense = build_kernel_unitary(grid, np.diag(chirp), dz)
    assert np.max(np.abs(diagonal.k_basis - dense.k_basis)) < 1e-15
    e_diagonal = bayes_propagate(d, diagonal).e
    e_dense = bayes_propagate(d, dense).e
    assert np.max(np.abs(e_diagonal - e_dense)) < 1e-15


@pytest.mark.parametrize("n", [16, 97])
def test_chirp_branch_never_forms_k_basis(monkeypatch, n):
    grid = _unit_grid(n)
    d = dirac_distribution(random_density_matrix(grid, np.random.default_rng(13)))
    chirps = {dz: fresnel_unitary(grid, dz) for dz in (0.0, 0.084, 0.325)}
    dense = {dz: bayes_propagate(d, build_kernel_unitary(grid, np.diag(c), dz)).e
             for dz, c in chirps.items()}

    def forbidden(self):
        raise AssertionError("the diagonal-V branch formed k_basis")

    monkeypatch.setattr(PropagatorKernel, "k_basis", property(forbidden))
    for dz, chirp in chirps.items():
        e = bayes_propagate(d, build_kernel_unitary(grid, chirp, dz)).e
        assert np.max(np.abs(e - dense[dz])) < 1e-15


@pytest.mark.parametrize("n", [3, 16, 97])
@pytest.mark.parametrize("x0", [0.0, 3e-4])
def test_chirp_propagation_is_the_distribution_of_the_rotated_state(n, x0):
    # Bayes' law for V = diag(c): e is the Dirac distribution of V rho V^dag
    rng = np.random.default_rng(n)
    grid = make_grid(n, 44e-3 / n, x0, UM)
    state = random_density_matrix(grid, rng)
    d, rho = dirac_distribution(state), state.rho
    for c in (np.exp(TWO_PI * 1j * rng.random(n)), fresnel_unitary(grid, 0.16)):
        e = bayes_propagate(d, build_kernel_unitary(grid, c)).e
        rotated = operator_dirac(grid, c[:, None] * rho * c.conj()).d
        assert np.max(np.abs(e - rotated)) < 1e-12


@pytest.mark.parametrize("n", [16, 97])
def test_chirp_branch_never_builds_the_overlap_matrix(n):
    d = dirac_distribution(random_density_matrix(_unit_grid(n), np.random.default_rng(13)))
    grid = _unit_grid(n)  # equal to d.grid, with nothing cached yet
    assert grid == d.grid
    kernel = build_kernel_unitary(grid, fresnel_unitary(grid, 0.16), 0.16)
    e = bayes_propagate(d, kernel)
    assert abs(e.e.sum() - 1.0) < 1e-12
    assert "overlap_matrix" not in vars(grid)
    assert "_signs" not in vars(grid)


@pytest.mark.parametrize("n", [7, 8, 129])
def test_analytic_branch_never_forms_the_dft_table(monkeypatch, n):
    """The lens is applied as a roll of each row's 2n-point spectrum, so no
    n x n table of DFT roots is gathered."""
    grid = make_grid(n, 44e-3 / n, 3e-4, UM)
    d = dirac_distribution(random_density_matrix(grid, np.random.default_rng(n)))

    def refuse(self):
        raise AssertionError("overlap_matrix built")

    monkeypatch.setattr(type(grid), "overlap_matrix", property(refuse))
    e = bayes_propagate(d, build_kernel_analytic(grid, 0.16))
    assert abs(e.e.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("n", [300, 301])
def test_analytic_branch_transforms_only_half_the_rows_of_the_wavelet(monkeypatch, n):
    """Pass 1 transforms the rows kp < ceil(n/2) of W and fills the other
    columns of ``inv`` by the wavelet's mirror symmetry, so exactly ceil(n/2)
    rows go through an FFT of length n; the convolution's have length 2n."""
    grid = make_grid(n, 44e-3 / n, 3e-4, UM)
    blocks = grid.row_blocks()
    assert any(lo < (n + 1) // 2 < hi for lo, hi in blocks[:-1])  # a block straddles it
    d = dirac_distribution(random_density_matrix(grid, np.random.default_rng(n)))
    kernel = build_kernel_analytic(grid, 0.16)
    expected = bayes_propagate(d, kernel).e
    fft, rows = np.fft.fft, []

    def counting_fft(a, *args, **kwargs):
        out = fft(a, *args, **kwargs)
        if out.shape[kwargs.get("axis", -1)] == n:
            rows.append(out.size // n)
        return out

    monkeypatch.setattr(bayesprop.np.fft, "fft", counting_fft)
    e = bayes_propagate(d, kernel).e
    assert sum(rows) == (n + 1) // 2
    assert np.array_equal(e, expected)


def test_unitary_kernel_stores_only_v():
    grid = _unit_grid(16)
    kernel = build_kernel_unitary(grid, fresnel_unitary(grid, 0.16), 0.16)
    arrays = {name: value for name, value in vars(kernel).items()
              if isinstance(value, np.ndarray)}
    assert list(arrays) == ["v"]
    assert all(a.size <= grid.n for a in arrays.values())


def test_analytic_kernel_stores_only_row():
    kernel = build_kernel_analytic(_unit_grid(16), 0.16)
    arrays = {name: value.shape for name, value in vars(kernel).items()
              if isinstance(value, np.ndarray)}
    assert arrays == {"row": (16,)}


@pytest.mark.parametrize("n", [8, 9, 97, 1024])
def test_analytic_lens_is_the_exact_signed_dft(n):
    """col[m, k] = exp(-2 pi i (m - n/2)(k - n/2) / n), against the phase
    (2m - n)(2k - n) / 4n turns reduced exactly in integers and evaluated in
    long double.  The lens exp(-2 pi i x k' / (f lambda)), its phase of up to
    pi n / 2 rad rounded first, was off by up to 5.8e-13 at n = 1024."""
    col = analytic_lens(make_grid(n, 44e-3 / n, 3e-4, UM))
    half = 2 * np.arange(n, dtype=np.int64) - n
    turns = np.outer(half, half) % (4 * n)
    angle = turns.astype(np.longdouble) * (-8 * np.arctan(np.longdouble(1)) / (4 * n))
    assert np.max(np.abs(col.real - np.cos(angle))) <= 1e-15
    assert np.max(np.abs(col.imag - np.sin(angle))) <= 1e-15


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
    assert np.array_equal(k1.v, k2.v)
    a1 = build_kernel_analytic(grid, 0.3)
    a2 = build_kernel_analytic(grid, 0.3)
    assert np.array_equal(a1.row, a2.row)
    d = dirac_distribution(random_density_matrix(grid, rng))
    assert np.array_equal(bayes_propagate(d, a1).e, bayes_propagate(d, a2).e)


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
    cond = cond_array(build_kernel_analytic(grid, dz))
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


@pytest.mark.parametrize("dz", [np.nan, np.inf, -np.inf, -1.0])
def test_non_finite_displacement_is_a_config_error(dz):
    grid = _unit_grid()
    with pytest.raises(ConfigError, match="must be finite and nonnegative"):
        build_kernel_analytic(grid, dz)
    with pytest.raises(ConfigError, match="must be finite and nonnegative"):
        fresnel_unitary(grid, dz)
    # the unitary kernel only records dz, but refuses one that no camera has
    with pytest.raises(ConfigError, match="must be finite and nonnegative"):
        build_kernel_unitary(grid, np.ones(grid.n), dz)


# kp = 7 = ceil(16/2) - 1 is the last column that pass 1 transforms, in the
# last of its blocks of 3 rows of W, so a loop that stops a block early misses it
@pytest.mark.parametrize("bad, kp", [(0.0, 1), (np.nan, 1), (np.inf, 1),
                                     (0.0, 7), (np.nan, 7), (np.inf, 7)],
                         ids=["0.0", "nan", "inf", "0.0 at the last computed column",
                              "nan at the last computed column",
                              "inf at the last computed column"])
def test_analytic_normalization_guard_rejects_zero_and_non_finite(monkeypatch, bad, kp):
    """``bayes_propagate`` forms the normalization before any other FFT, and
    refuses it before dividing by it, in every column it transforms."""
    monkeypatch.setattr(lattice, "BLOCK", 48)
    grid = _unit_grid()
    assert grid.row_blocks()[:3] == [(0, 3), (3, 6), (6, 9)]
    d = dirac_distribution(random_density_matrix(grid, np.random.default_rng(7)))
    kernel = build_kernel_analytic(grid, 0.1)
    fft, seen = np.fft.fft, []

    def broken_fft(a, *args, **kwargs):  # the transform of the rows of W that gives norm
        out = fft(a, *args, **kwargs)
        if out.shape[-1] == grid.n:  # rows sum(seen), ... of W; the convolution's are 2n long
            first = sum(seen)
            seen.append(out.shape[0])
            if first <= kp < first + out.shape[0]:
                out[kp - first, 2] = bad
        return out

    monkeypatch.setattr(bayesprop.np.fft, "fft", broken_fft)
    with pytest.raises(NumericalIntegrityError, match="normalization"):
        bayes_propagate(d, kernel)


# n mod 4 fixes the lens row constant (-i)^n t_m; 66 and 67 meet n = 2 and 3 mod 4 past n = 8
# at 300 and 301 the mirror boundary ceil(n/2) falls inside the third of six row blocks
@pytest.mark.parametrize("n", [2, 3, 8, 9, 12, 66, 67, 97, 256, 300, 301])
@pytest.mark.parametrize("x0", [0.0, 3e-4])
@pytest.mark.parametrize("dz", [0.084, 0.16, 0.325])
def test_analytic_propagation_matches_dense_product(n, x0, dz):
    grid = make_grid(n, 44e-3 / n, x0, UM)
    kernel = build_kernel_analytic(grid, dz)
    assert kernel.row.shape == (n,)
    # the generator is column 0 of the dense wavelet matrix, bit for bit
    cam = UM.ft_plane_coordinate(grid.momenta)
    r = np.hypot(dz, cam[:, None] - cam[None, :])
    assert np.array_equal(kernel.row, (np.exp(-1j * TWO_PI * r / UM.wavelength) / r)[:, 0])
    w = dense_wavelet(kernel.row)
    col = analytic_lens(grid)
    inv = 1.0 / (col @ w)  # dense, not the per-row FFT that bayes_propagate takes
    d = dirac_distribution(random_density_matrix(grid, np.random.default_rng(n)))
    e = bayes_propagate(d, kernel).e
    dense = col * ((inv * d.d) @ w)
    assert np.max(np.abs(e - dense)) <= 1e-12 * np.max(np.abs(e))


def test_analytic_kernel_completeness_by_construction():
    rng = np.random.default_rng(6)
    n, f, lam, dx = 8, 1.0, 780e-9, 1e-3
    grid = make_grid(n, dx, 0.0, UnitMap(lam, f, 1.0))
    kernel = build_kernel_analytic(grid, f ** 2 * lam / (n * dx ** 2))
    assert kernel.kind == KIND_ANALYTIC
    cond = cond_array(kernel)
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
    for bad in (np.eye(7), np.ones((8, 8)), np.ones(9), nan_chirp, nan_dense, _STRINGS):
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


@pytest.mark.parametrize("delta, message", [(0.1j, "imaginary residual"),
                                            (0.5, "negative entry")])
def test_propagated_validate_rejects_complex_or_negative_row_sums(delta, message):
    e = np.full((4, 4), 1 / 16, dtype=complex)
    e[0, 0] += delta
    e[1, 0] -= delta  # the total and the column sums stay as they were
    with pytest.raises(NumericalIntegrityError,
                       match=rf"^position marginal has {message} \S+ [<>] -?1e-09$"):
        PropagatedDistribution(grid=_unit_grid(4), dz=0.1, e=e, kind="measured").validate()


def test_analytic_kernel_has_no_k_basis():
    assert build_kernel_analytic(_unit_grid(8), 0.16).k_basis is None


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

