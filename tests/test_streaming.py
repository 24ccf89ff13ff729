"""The n x n FFT products run a block of rows at a time into one output.

``operator_dirac``, ``reconstruct_density``, the chirp and analytic branches
of ``bayes_propagate`` and the analytic kernel's normalization each fill one
preallocated n x n array block by block (``Grid.row_blocks``, about
``lattice.BLOCK`` numbers per block).  Each must equal its whole-matrix
reference in ``conftest.py`` bit for bit, and hold little more than its
output at its peak.  The ``figures`` stage likewise forms each table a block
of rows at a time, holding little more than the matrix it read.
"""

import tracemalloc

import numpy as np
import pytest

from diracsim import (UnitMap, bayes_propagate, build_bench_state, build_kernel_analytic,
                      build_kernel_unitary, dirac_distribution, fresnel_unitary, make_grid,
                      operator_dirac, random_density_matrix, reconstruct_density)
from diracsim import lattice
from diracsim.cli import main
from diracsim.fileio import grid_meta, write_matrix
from conftest import (bench_grid, whole_analytic_inverse, whole_operator_dirac,
                      whole_propagate, whole_reconstruct)

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
    analytic = build_kernel_analytic(grid, 0.16)
    assert np.array_equal(analytic.inv, whole_analytic_inverse(analytic))
    for kernel in (build_kernel_unitary(grid, fresnel_unitary(grid, 0.16), 0.16), analytic):
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
# 2.51 and 2.50.
@pytest.mark.parametrize("name, bound", [
    ("dirac_distribution", 1.25), ("reconstruct_density", 1.25), ("chirp propagate", 1.25),
    ("analytic build", 1.5), ("analytic propagate", 1.5),
])
def test_each_streamed_product_holds_its_output_and_a_few_blocks(inputs_512, name, bound):
    grid, state, d, chirp, analytic = inputs_512
    call = {
        "dirac_distribution": lambda: dirac_distribution(state),
        "reconstruct_density": lambda: reconstruct_density(d),
        "chirp propagate": lambda: bayes_propagate(d, chirp),
        "analytic build": lambda: build_kernel_analytic(grid, 0.16),
        "analytic propagate": lambda: bayes_propagate(d, analytic),
    }[name]
    peak = _peak_matrices(call)
    assert 1.0 <= peak <= bound, peak


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
