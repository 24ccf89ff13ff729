"""Standard-ordered (Dirac/Kirkwood) quasi-probability distribution.

The distribution of a state rho over the lattice phase-space point
``(x_m, p_k)`` is

    d[m, k] = <p_k|x_m> <x_m|rho|p_k>,

the expectation of the ordered projector product ``pi_p pi_x``.  It is
complex, normalized like a probability distribution, its row/column sums are
the position/momentum probabilities, and the state can be recovered from it
exactly.  Phase-space averages carry a lattice prefactor ``n`` in place of
the continuum 2 pi, forced by ``|<x|p>|^2 = 1/n`` and pinned by the
oracle tests rather than assumed.

With ``U = diag(t) F diag(b) / sqrt(n)`` and the exact signs
``t_m = (-1)^m`` (see :mod:`.lattice`) the transform and its inverse need
neither U nor b.  For any operator op and j = (m + s) mod n,

    d[m, k] = (1/n) sum_j t_m t_j op[m, j] exp(2 pi i (j - m) k / n)
            = ifft_s(t_m t_j op[m, j])[k],
    op[m, j] = t_m t_j fft(d)[m, s],

the first from ``d = conj(U) * (op U)`` with |b_k| = 1, the second by
inverting the DFT over the lag s.  ``t_m t_j = (-1)^(j - m)`` is the exact
value of the row phase product conj(a_m) a_j, a_m = exp(i p_0 x_m), so no
phase is rounded.  :func:`operator_dirac` and :func:`reconstruct_density`
are one skew (:meth:`.Grid.skew`, :meth:`.Grid.unskew`, each a diagonal of
sliding windows) and one FFT along the rows each, O(n^2 log n), and never
form the n x n overlap matrix.  Both go one block of :meth:`.Grid.row_blocks`
at a time into one preallocated output, so each holds the output and a few
blocks, not whole-matrix temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NullEventError, NumericalIntegrityError
from .lattice import Grid, _as_array, _is_int
from .qstate import DensityMatrix

NORMALIZATION_TOL = 1e-10
MARGINAL_TOL = 1e-10
COND_EPSILON = 1e-8


@dataclass(frozen=True, eq=False)
class DiracDistribution:
    """Complex n x n array ``d[m, k]`` over (position, momentum) lattice points.

    ``d`` is held as :func:`.lattice._as_array` reads it; a distribution
    built with anything but numbers of that shape is a ContractError, so no
    consumer checks it again.
    """

    grid: Grid
    d: np.ndarray

    def __post_init__(self) -> None:  # the dataclass is frozen
        n = self.grid.n
        object.__setattr__(self, "d", _as_array(self.d, "distribution", shape=(n, n)))

    def validate(self) -> None:
        """Check, to ``NORMALIZATION_TOL``, that d sums to 1 and that its
        marginals are real and nonnegative (:func:`_check_quasi_probability`)."""
        _check_quasi_probability(self.d, NORMALIZATION_TOL, "distribution", "momentum")


def dirac_distribution(rho: DensityMatrix) -> DiracDistribution:
    """Dirac distribution of a state, ``d[m,k] = <p_k|x_m><x_m|rho|p_k>``."""
    rho.validate()
    out = operator_dirac(rho.grid, rho.rho)
    out.validate()
    return out


def operator_dirac(grid: Grid, op: np.ndarray) -> DiracDistribution:
    """Apply the Dirac-distribution formula to an arbitrary operator.

    No state invariants are enforced; this is how phase-space transforms of
    observables (trace-one not required) are produced for
    :func:`expectation_overlap`.  An entry that overflows (an operator with
    entries near the float limit) is left inf or nan, with no warning.
    """
    op = _as_array(op, "operator", shape=(grid.n, grid.n)).astype(complex, copy=False)
    t = grid._signs
    d = np.empty(op.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is left inf or nan
        for lo, hi in grid.row_blocks():  # t_j op[m, j] at (m, s), transformed over s, times t_m
            np.multiply(np.fft.ifft(grid.skew(op[lo:hi] * t, lo), axis=1), t[lo:hi, None],
                        out=d[lo:hi])
    d.setflags(write=False)
    return DiracDistribution(grid=grid, d=d)


def _sum(a: np.ndarray, axis: int | None = None):
    """``a.sum(axis)``; a sum that overflows is inf or nan, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a.sum(axis=axis)


def _real_marginal(a: np.ndarray, axis: int, label: str, tol: float = MARGINAL_TOL) -> np.ndarray:
    """The real part of the sums of ``a`` along ``axis``, checked to ``tol``:
    an imaginary part above it, an entry below ``-tol``, or a total that is
    not finite is a NumericalIntegrityError."""
    sums = _sum(a, axis)
    imag = np.max(np.abs(sums.imag))
    if not imag <= tol:
        raise NumericalIntegrityError(
            f"{label} marginal has imaginary residual {imag:.3e} > {tol}"
        )
    real = sums.real
    if not real.min() >= -tol:
        raise NumericalIntegrityError(
            f"{label} marginal has negative entry {real.min():.3e} < -{tol}"
        )
    total = _sum(real)
    if not np.isfinite(total):
        raise NumericalIntegrityError(f"{label} marginal sums to {total}, which is not finite")
    return real.copy()


def _check_quasi_probability(a: np.ndarray, tol: float, what: str, column: str) -> None:
    """The invariant of a classical-like quasi-probability ``a[m, k]`` over
    position and a second variable named ``column``: to ``tol``, ``a`` sums
    to 1 (else a ContractError), and its position marginal (row sums) and
    ``column`` marginal (column sums) are real and nonnegative (else a
    NumericalIntegrityError).  :meth:`DiracDistribution.validate` and
    :meth:`.PropagatedDistribution.validate` both check it here.
    """
    total = _sum(a)
    if not abs(total - 1.0) <= tol:
        raise ContractError(f"{what} sums to {total}, expected 1")
    _real_marginal(a, 1, "position", tol)
    _real_marginal(a, 0, column, tol)


def marginal_x(dist: DiracDistribution) -> np.ndarray:
    """Position marginal Prob(x_m), the real part of the row sums.

    An imaginary part above ``MARGINAL_TOL``, an entry below
    ``-MARGINAL_TOL``, or a marginal whose sum is not finite, is a
    NumericalIntegrityError.
    """
    return _real_marginal(dist.d, 1, "position")


def marginal_p(dist: DiracDistribution) -> np.ndarray:
    """Momentum marginal Prob(p_k), the real part of the column sums, checked
    as :func:`marginal_x` checks its rows."""
    return _real_marginal(dist.d, 0, "momentum")


def conditional_x_given_p(dist: DiracDistribution, k: int) -> np.ndarray:
    """Conditional quasi-probability of x given momentum outcome ``p_k``.

    For a pure state and the p = 0 column this is the wavefunction itself up
    to one global complex factor.  A column whose probability is at most
    ``COND_EPSILON`` is a null event (NullEventError).  ``k`` must be an
    integer index, not a bool (ContractError).
    """
    if not _is_int(k):
        raise ContractError(f"momentum index must be an integer, got {k!r}")
    if not 0 <= k < dist.grid.n:
        raise ContractError(f"momentum index {k} out of range for n={dist.grid.n}")
    prob = marginal_p(dist)[k]
    if prob <= COND_EPSILON:
        raise NullEventError(
            f"momentum column {k} has probability {prob:.3e} <= {COND_EPSILON}; "
            "cannot condition on a null event"
        )
    return dist.d[:, k] / prob


def reconstruct_density(dist: DiracDistribution) -> DensityMatrix:
    """Invert the distribution back to the position density matrix.

    An FFT of each row of d gives ``t_m t_j rho[m, j]`` at lag
    s = (j - m) mod n (module docstring); unskewing and applying the two
    signs again recovers rho.  The round trip through :func:`dirac_distribution`
    is exact to rounding.  No state invariants are enforced on the output,
    since measured distributions carry noise; call ``.validate()`` where
    exactness is expected.  An entry that overflows is left inf or nan, with
    no warning, as in :func:`operator_dirac`.
    """
    grid = dist.grid
    t = grid._signs
    rho = np.empty(dist.d.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in grid.row_blocks():
            np.multiply(grid.unskew(np.fft.fft(dist.d[lo:hi], axis=1), lo), t[lo:hi, None],
                        out=rho[lo:hi])
            rho[lo:hi] *= t
    rho.setflags(write=False)
    return DensityMatrix(grid=grid, rho=rho)


def expectation_overlap(d_rho: DiracDistribution, d_obs: DiracDistribution) -> complex:
    """Phase-space form of Tr[A rho]: ``n * sum d_rho * conj(d_A)``."""
    if d_rho.grid != d_obs.grid:
        raise ContractError("distributions live on different grids")
    return d_rho.grid.n * complex(np.vdot(d_obs.d, d_rho.d))  # Python floats: no warning


def purity(dist: DiracDistribution) -> float:
    """Tr rho^2 computed directly from the distribution: ``n * sum |d|^2``.

    The sum runs a block of :meth:`.Grid.row_blocks` at a time, so no n x n
    temporary is formed."""
    blocks = (dist.d[lo:hi] for lo, hi in dist.grid.row_blocks())
    return float(dist.grid.n * sum(np.vdot(b, b).real for b in blocks))
