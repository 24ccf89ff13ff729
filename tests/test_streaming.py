"""The n x n FFT products run a block of rows at a time into one output.

``operator_dirac``, ``reconstruct_density`` and the chirp and analytic
branches of ``bayes_propagate`` (the analytic one forms its normalization in
its output first) each fill one preallocated n x n array block by block
(``Grid.row_blocks``, about ``lattice.BLOCK`` numbers per block).  Each must equal its whole-matrix
reference in ``conftest.py`` bit for bit, and hold little more than its
output at its peak.  The ``figures`` stage likewise forms each table a block
of rows at a time, holding little more than the matrix it read.
"""

import tracemalloc

import numpy as np
import pytest

from diracsim import (UnitMap, bayes_propagate, build_bench_state, build_kernel_analytic,
                      build_kernel_unitary, dirac_distribution, fresnel_unitary, make_grid,
                      operator_dirac, purity, random_density_matrix, reconstruct_density)
from diracsim import lattice
from diracsim.cli import main
from diracsim.fileio import grid_meta, write_matrix
from conftest import bench_grid, whole_operator_dirac, whole_propagate, whole_reconstruct

UM = UnitMap(wavelength=780e-9, focal_length=1.0, magnification=4.935)

# (n, numbers per block): 8-row blocks at n = block - 1, block and block + 1,
# then the package's own BLOCK around its 128-row block at n = 128 and at an
# odd n with a short last block
_SIZES = [(7, 56), (8, 64), (9, 72), (127, None), (128, None), (129, None), (301, None)]


@pytest.mark.parametrize("n, block", _SIZES)
def test_streamed_products_equal_their_whole_matrix_references_bit_for_bit(
        monkeypatch, n, block):
    if block is not None:
        monkeypatch.setattr(lattice, "BLOCK", block)
    rng = np.random.default_rng(n)
    grid = make_grid(n, 44e-3 / n, 3e-4, UM)
    rows = max(1, lattice.BLOCK // n)
    assert grid.row_blocks() == [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    op = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.array_equal(operator_dirac(grid, op).d, whole_operator_dirac(grid, op))
    d = dirac_distribution(random_density_matrix(grid, rng))
    assert np.array_equal(reconstruct_density(d).rho, whole_reconstruct(grid, d.d))
    for kernel in (build_kernel_unitary(grid, fresnel_unitary(grid, 0.16), 0.16),
                   build_kernel_analytic(grid, 0.16)):
        assert np.array_equal(bayes_propagate(d, kernel).e, whole_propagate(kernel, d.d))


_N = 512


@pytest.fixture(scope="module")
def inputs_512():
    grid, cfg = bench_grid(_N, mixed=True)
    state = build_bench_state(cfg, grid)  # certified by construction: no Cholesky below
    d = dirac_distribution(state)
    chirp = build_kernel_unitary(grid, fresnel_unitary(grid, 0.16), 0.16)
    return grid, state, d, chirp, build_kernel_analytic(grid, 0.16)


def _peak_matrices(call):
    """Peak traced memory of ``call()`` above its start, in n x n complex matrices."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (16 * _N ** 2)


# Taken on whole matrices at once, these products peaked at 3.00, 3.06, 2.00,
# 2.51 and 2.50.  The analytic build stores only its length-n generator, so
# it holds no n x n array and has no lower bound.
@pytest.mark.parametrize("name, low, bound", [
    ("dirac_distribution", 1.0, 1.25), ("reconstruct_density", 1.0, 1.25),
    ("chirp propagate", 1.0, 1.25), ("analytic build", 0.0, 0.1),
    ("analytic propagate", 1.0, 1.5),
])
def test_each_streamed_product_holds_its_output_and_a_few_blocks(inputs_512, name, low, bound):
    grid, state, d, chirp, analytic = inputs_512
    call = {
        "dirac_distribution": lambda: dirac_distribution(state),
        "reconstruct_density": lambda: reconstruct_density(d),
        "chirp propagate": lambda: bayes_propagate(d, chirp),
        "analytic build": lambda: build_kernel_analytic(grid, 0.16),
        "analytic propagate": lambda: bayes_propagate(d, analytic),
    }[name]
    peak = _peak_matrices(call)
    assert low <= peak <= bound, peak


def test_purity_holds_no_n_by_n_temporary(inputs_512):
    """Taken over the whole matrix, ``np.abs(d) ** 2`` held 0.50 matrices."""
    d = inputs_512[2]
    assert _peak_matrices(lambda: purity(d)) <= 0.1


def test_figures_holds_the_matrix_it_read_and_a_few_blocks(tmp_path, inputs_512):
    """Formed whole, the magnitude, ``np.angle`` and the wrapped phase next
    to the matrix read peaked at 2.5 matrices."""
    grid, _, d, _, _ = inputs_512
    path = str(tmp_path / "dirac.txt")
    write_matrix(path, d.d, {"kind": "dirac", **grid_meta(grid)})
    codes = []
    peak = _peak_matrices(lambda: codes.append(
        main(["figures", "--input", path, "--out", str(tmp_path / "out")])))
    assert codes == [0]
    assert 1.0 <= peak <= 1.5, peak
