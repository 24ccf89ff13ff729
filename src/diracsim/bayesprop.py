"""Bayesian propagation of the Dirac distribution to displaced camera planes.

Moving the camera a distance dz past the Fourier-transform plane changes the
strong measurement from momentum to a hybrid observable K', position on the
displaced camera.  Because the input plane sits one focal length before the
FT lens, free propagation past the FT plane acts on the input-plane state as
a pure position-diagonal defocus chirp,

    V(dz) = diag_m exp(-i pi dz x_m^2 / (lambda f^2)),

so the displaced camera pixels correspond to the pulled-back states
``|k'_j> = V^dag |p_j>``.  :func:`fresnel_unitary` returns only that
diagonal, and the kernel builds the pulled-back states from it in O(n^2);
a dense unitary is accepted as well, for propagators that are not diagonal
in x.  The state-independent complex conditional

    cond[k', m, kp] = <p_kp|k'> <k'|x_m> / <p_kp|x_m>

propagates any Dirac distribution d to the displaced plane through the Bayes
sum ``e[m, k'] = sum_kp cond[k', m, kp] d[m, kp]``, exactly equal to the
displaced-basis expectation Tr[pi_k' pi_x rho] when the kernel comes from a
unitary.  An alternative kernel evaluates the closed-form spherical-wavelet
(Huygens) propagator on the camera lattice; the two agree only at the
commensurate displacement dz = f^2 lambda / (n dx^2), and at other dz the
analytic kernel is wrong by order one, so the command line uses the unitary
kernel only.  :func:`joint4_tensor` gives the four-variable joint
quasi-probability of two such basis changes.

All kernels are stored in factored form, ``cond = col[m,j] row[kp,j]
inv[m,kp]``, and the full n^3 array is only materialized on demand for small
grids.  ``row = U^dag K`` is computed by FFT (see :mod:`.lattice`).  A kernel
built from a chirp vector c keeps it, and propagates by two FFTs,
``e = col * ((((inv * d) U^dag) conj(c)) U)``; kernels from a dense unitary
and the analytic kernel propagate by one matrix product with ``row``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, ContractError, DegenerateKernelError,
                     NumericalIntegrityError)
from .lattice import Grid, TWO_PI
from .qstate import BenchConfig, DensityMatrix
from .dirac import DiracDistribution
from . import weaksim

KIND_UNITARY = "discrete-unitary"
KIND_ANALYTIC = "analytic-fresnel"
_COND_MEMORY_LIMIT = 2 ** 30  # refuse to materialize cond arrays above 1 GiB


@dataclass(frozen=True, eq=False)
class PropagatorKernel:
    """Conditional quasi-probability kernel for one camera displacement.

    ``k_basis`` columns are the displaced-plane position eigenstates in the
    x-basis (unitary construction only).  The factor arrays reproduce
    ``cond[j, m, kp] = col[m, j] * row[kp, j] * inv[m, kp]``.  ``chirp`` is
    the diagonal of V when the kernel was built from one; then
    ``row = U^dag diag(conj(chirp)) U`` and :func:`bayes_propagate` applies
    it by FFT instead of multiplying by ``row``.
    """

    grid: Grid
    dz: float
    kind: str
    k_basis: np.ndarray | None
    col: np.ndarray
    row: np.ndarray
    inv: np.ndarray
    chirp: np.ndarray | None = None

    def cond_array(self) -> np.ndarray:
        """Materialize cond[j, m, kp]; refuses grids where it would not fit."""
        n = self.grid.n
        if 16 * n ** 3 > _COND_MEMORY_LIMIT:
            raise ContractError(
                f"cond array for n={n} needs {16 * n ** 3 / 2 ** 30:.1f} GiB; "
                "use the factored form via bayes_propagate instead"
            )
        return np.einsum("mj,kj,mk->jmk", self.col, self.row, self.inv)


@dataclass(frozen=True, eq=False)
class PropagatedDistribution:
    """Complex array e[m, k'] over (weak position, displaced camera position)."""

    grid: Grid
    dz: float
    e: np.ndarray
    kind: str

    def validate(self, tol: float = 1e-9) -> None:
        total = self.e.sum()
        if not abs(total - 1.0) <= tol:
            raise ContractError(f"propagated distribution sums to {total}, expected 1")
        for axis, label in ((1, "row"), (0, "column")):
            sums = self.e.sum(axis=axis)
            if not np.max(np.abs(sums.imag)) <= tol:
                raise NumericalIntegrityError(f"{label} sums have imaginary residual")
            if not sums.real.min() >= -tol:
                raise NumericalIntegrityError(f"{label} sums have negative entry")


def fresnel_unitary(grid: Grid, dz: float) -> np.ndarray:
    """Paraxial free-space propagation by dz in the camera region, as the
    diagonal of its x-basis unitary.

    The camera-region angular spectrum lives on the input-plane position
    lattice, so the transfer phase exp(-i dz lambda kappa^2 / 4 pi) becomes
    the x-diagonal chirp exp(-i pi dz x^2 / (lambda f^2)).  Returns that
    length-n unit-modulus vector; V(0) is all ones.
    """
    units = grid.require_unit_map()
    if dz < 0:
        raise ConfigError(f"camera displacement dz {dz} must be nonnegative")
    lam, f = units.wavelength, units.focal_length
    x_axis = grid.coords - grid.x0  # the optical axis runs through the grid center
    phase = -np.pi * dz * x_axis ** 2 / (lam * f ** 2)
    return np.exp(1j * phase)


def _checked_unitary(grid: Grid, v: np.ndarray) -> np.ndarray:
    """``v`` as a complex array, after checking that it is a unitary V.

    ``v`` is either the length-n diagonal of V or the dense n x n matrix.
    For a diagonal, the defect max |V^dag V - 1| is max ||c|^2 - 1|, so both
    forms pass the same check in O(n) and O(n^3) respectively.
    """
    v = np.asarray(v, dtype=complex)
    n = grid.n
    if v.shape == (n,):
        defect = np.max(np.abs(np.abs(v) ** 2 - 1.0))
    elif v.shape == (n, n):
        defect = np.max(np.abs(v.conj().T @ v - np.eye(n)))
    else:
        raise ContractError(f"unitary shape {v.shape} does not match grid n={n}")
    if not defect <= 1e-12:
        raise ContractError(f"matrix is not unitary (defect {defect:.3e})")
    return v


def _displaced_basis(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Columns V^dag |p_j> in the x basis, after checking that V is unitary."""
    v = _checked_unitary(grid, v)
    if v.ndim == 1:
        return v.conj()[:, None] * grid.overlap_matrix
    return v.conj().T @ grid.overlap_matrix


def build_kernel_unitary(grid: Grid, v: np.ndarray, dz: float = 0.0) -> PropagatorKernel:
    """Exact kernel from a discrete unitary V; its k' states are V^dag |p_j>.

    ``v`` is the length-n diagonal of V, as :func:`fresnel_unitary` returns
    it, or a dense n x n unitary.  Completeness (sum over k' equal to one)
    holds identically, so the Bayes sum reproduces displaced-basis
    expectation values exactly.  ``dz`` is recorded as provenance only; it
    plays no role in the construction.  A diagonal is kept on the kernel, so
    that :func:`bayes_propagate` can apply it by FFT.
    """
    k_basis = _displaced_basis(grid, v)
    u = grid.overlap_matrix
    if np.min(np.abs(u)) == 0.0:
        raise ContractError("overlap matrix has a vanishing entry")
    col = k_basis.conj()
    row = grid.matmul_overlap(col.T).conj().T  # U^dag k_basis
    return PropagatorKernel(
        grid=grid, dz=float(dz), kind=KIND_UNITARY, k_basis=k_basis,
        col=col, row=row, inv=1.0 / u.conj(),
        chirp=np.array(v, dtype=complex) if np.ndim(v) == 1 else None,
    )


def build_kernel_analytic(grid: Grid, dz: float) -> PropagatorKernel:
    """Closed-form spherical-wavelet kernel on the camera pixel lattice.

    The kernel is normalized per (x, p) pair by the completeness condition
    sum_k' cond = 1, which the Bayes sum requires; factors depending only on
    (x, p) cancel under that normalization, leaving the wavelet and the lens
    phase.  The full closed form (``analytic_kernel_term`` in
    ``tests/conftest.py``, which the tests check this kernel against) is
    written for the Fourier convention conjugate to this package's
    <x|p> = exp(+i x p), so the kernel built here is its entrywise
    conjugate: wavelet exp(-2 pi i r / lambda)/r and lens phase
    exp(-2 pi i x k'/(f lambda)).  This orientation is pinned by agreement
    with the unitary construction at dz = f^2 lambda / (n dx^2), the only
    displacement where the two agree; at other dz, the default ones
    included, the propagated distributions differ by order one, and the
    normalization hides it.  Magnification is left out; apply it afterwards
    as a coordinate relabeling.  dz = 0 is singular here and must use the
    unitary kernel.
    """
    units = grid.require_unit_map()
    if dz <= 0:
        raise DegenerateKernelError(
            "analytic kernel is singular at dz = 0; build the unitary kernel instead"
        )
    lam, f = units.wavelength, units.focal_length
    cam = units.ft_plane_coordinate(grid.momenta)
    x_axis = grid.coords - grid.x0  # positions relative to the optical axis
    r = np.sqrt(dz ** 2 + (cam[:, None] - cam[None, :]) ** 2)
    wavelet = np.exp(-1j * TWO_PI * r / lam) / r
    lens = np.exp(-1j * TWO_PI * np.outer(x_axis, cam) / (f * lam))
    norm = lens @ wavelet.T
    if np.min(np.abs(norm)) == 0.0:
        raise NumericalIntegrityError("analytic kernel normalization vanished")
    return PropagatorKernel(
        grid=grid, dz=float(dz), kind=KIND_ANALYTIC, k_basis=None,
        col=lens, row=wavelet, inv=1.0 / norm,
    )


def bayes_propagate(dist: DiracDistribution, kernel: PropagatorKernel) -> PropagatedDistribution:
    """Single-variable Bayes update e[m, k'] = sum_kp cond[k', m, kp] d[m, kp].

    A chirp kernel applies ``row = U^dag diag(conj(c)) U`` as two FFTs; every
    other kernel multiplies by ``row``.
    """
    grid = kernel.grid
    if dist.grid != grid:
        raise ContractError("distribution and kernel live on different grids")
    if kernel.chirp is None:
        e = kernel.col * ((kernel.inv * dist.d) @ kernel.row)
    else:
        chirped = grid.matmul_overlap_adjoint(kernel.inv * dist.d)
        chirped *= kernel.chirp.conj()
        e = kernel.col * grid.matmul_overlap(chirped)
    e.setflags(write=False)
    return PropagatedDistribution(grid=dist.grid, dz=kernel.dz, e=e, kind=kernel.kind)


def joint4_tensor(rho: DensityMatrix, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Four-variable joint J[x, q', k', p] = <p|k'><k'|q'><q'|x><x|rho|p>.

    q' eigenstates are V1^dag applied to the position basis, k' eigenstates
    V2^dag applied to the momentum basis.  Each of ``v1`` and ``v2`` is a
    length-n diagonal or a dense n x n unitary, checked as
    :func:`build_kernel_unitary` checks its V.  Summing all four indices
    gives 1; summing x and p gives the two-projector expectation
    Tr[pi_k' pi_q' rho].
    """
    grid = rho.grid
    v1 = _checked_unitary(grid, v1)
    q_basis = np.diag(v1.conj()) if v1.ndim == 1 else v1.conj().T
    k_basis = _displaced_basis(grid, v2)
    p2k = grid.matmul_overlap(k_basis.conj().T).conj().T  # U^dag k_basis
    k2q = k_basis.conj().T @ q_basis
    q2x = q_basis.conj().T
    xrp = grid.matmul_overlap(rho.rho)
    return np.einsum("kc,cb,ba,ak->abck", p2k, k2q, q2x, xrp)


def direct_measure_displaced(rho: DensityMatrix, cfg: BenchConfig, dz: float, *,
                             noise: bool = False, seed: int | None = None,
                             correct: bool = True) -> PropagatedDistribution:
    """Run the weak-measurement pipeline with the camera displaced by dz.

    The system is propagated by the defocus unitary before the strong
    projection, i.e. the readout basis becomes the displaced-plane pixel
    states.  This is the experimental-side oracle for :func:`bayes_propagate`.
    """
    basis = _displaced_basis(rho.grid, fresnel_unitary(rho.grid, dz))
    measured = weaksim.scan(rho, cfg, noise=noise, seed=seed, correct=correct, basis=basis)
    return PropagatedDistribution(grid=rho.grid, dz=float(dz), e=measured.d, kind="measured")
