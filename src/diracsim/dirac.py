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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NullEventError, NumericalIntegrityError
from .lattice import Grid
from .qstate import DensityMatrix

NORMALIZATION_TOL = 1e-10
MARGINAL_TOL = 1e-10
COND_EPSILON = 1e-8


@dataclass(frozen=True, eq=False)
class DiracDistribution:
    """Complex n x n array ``d[m, k]`` over (position, momentum) lattice points."""

    grid: Grid
    d: np.ndarray

    def validate(self) -> None:
        n = self.grid.n
        if self.d.shape != (n, n):
            raise ContractError("distribution shape does not match grid")
        total = self.d.sum()
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ContractError(f"distribution sums to {total}, expected 1")
        marginal_x(self)
        marginal_p(self)

    @property
    def anti_standard(self) -> "DiracDistribution":
        """Reverse-ordered counterpart, the entrywise complex conjugate."""
        return DiracDistribution(grid=self.grid, d=self.d.conj())


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
    :func:`expectation_overlap`.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (grid.n, grid.n):
        raise ContractError(f"operator shape {op.shape} does not match grid n={grid.n}")
    d = grid.overlap_matrix.conj() * grid.matmul_overlap(op)
    d.setflags(write=False)
    return DiracDistribution(grid=grid, d=d)


def _real_marginal(sums: np.ndarray, label: str, tol: float) -> np.ndarray:
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
    return real.copy()


def marginal_x(dist: DiracDistribution, tol: float = MARGINAL_TOL) -> np.ndarray:
    """Position marginal Prob(x_m), the real part of the row sums."""
    return _real_marginal(dist.d.sum(axis=1), "position", tol)


def marginal_p(dist: DiracDistribution, tol: float = MARGINAL_TOL) -> np.ndarray:
    """Momentum marginal Prob(p_k), the real part of the column sums."""
    return _real_marginal(dist.d.sum(axis=0), "momentum", tol)


def conditional_x_given_p(dist: DiracDistribution, k: int, eps: float = COND_EPSILON) -> np.ndarray:
    """Conditional quasi-probability of x given momentum outcome ``p_k``.

    For a pure state and the p = 0 column this is the wavefunction itself up
    to one global complex factor.
    """
    if not 0 <= k < dist.grid.n:
        raise ContractError(f"momentum index {k} out of range for n={dist.grid.n}")
    prob = marginal_p(dist)[k]
    if prob <= eps:
        raise NullEventError(
            f"momentum column {k} has probability {prob:.3e} <= {eps}; "
            "cannot condition on a null event"
        )
    return dist.d[:, k] / prob


def reconstruct_density(dist: DiracDistribution) -> DensityMatrix:
    """Invert the distribution back to the position density matrix.

    Dividing ``d[m, k]`` by ``<p_k|x_m>`` recovers ``<x_m|rho|p_k>``; the
    remaining momentum index is transformed back with the same overlap
    convention, by FFT.  The round trip through :func:`dirac_distribution` is
    exact to rounding.  No state invariants are enforced on the output, since
    measured distributions carry noise; call ``.validate()`` where exactness
    is expected.
    """
    grid = dist.grid
    rho = grid.matmul_overlap_adjoint(dist.d / grid.overlap_matrix.conj())
    rho.setflags(write=False)
    return DensityMatrix(grid=grid, rho=rho)


def expectation_overlap(d_rho: DiracDistribution, d_obs: DiracDistribution) -> complex:
    """Phase-space form of Tr[A rho]: ``n * sum d_rho * conj(d_A)``."""
    if d_rho.grid != d_obs.grid:
        raise ContractError("distributions live on different grids")
    return complex(d_rho.grid.n * np.vdot(d_obs.d, d_rho.d))


def purity(dist: DiracDistribution) -> float:
    """Tr rho^2 computed directly from the distribution: ``n * sum |d|^2``."""
    return float(dist.grid.n * np.sum(np.abs(dist.d) ** 2))
