"""Pure and mixed states, and the optical-bench scenario builder.

The bench scenario is a collimated beam clipped by a hard aperture, with a
glass plate covering the half beyond ``edge_position``.  A stationary plate
adds a static phase step (plus an optional linear phase gradient from a
wedge in the glass); an oscillating plate randomizes that phase, which after
time averaging destroys all coherence between the two halves and leaves a
mixed state.  Scattering at the plate edge is modeled as a single-site
amplitude dip.

A density matrix is certified once, by the code that builds it: by
construction when it is formed from validated amplitudes, else by one full
check (:class:`DensityMatrix`).  ``DensityMatrix.validate`` skips only a
certified state whose matrix is still read-only, and records nothing itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DegenerateInputError
from .lattice import Grid

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
WEIGHT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized position-basis amplitudes on a grid.

    ``amp`` has shape (n,) for its grid; a state built with any other shape is
    a ContractError, so no consumer checks it again.
    """

    grid: Grid
    amp: np.ndarray

    def __post_init__(self) -> None:
        if np.shape(self.amp) != (self.grid.n,):
            raise ContractError("amplitude length does not match grid")

    def validate(self) -> None:
        norm = float(np.sum(np.abs(self.amp) ** 2))
        if not abs(norm - 1.0) <= 1e-10:
            raise ContractError(f"state norm {norm} deviates from 1 beyond 1e-10")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite operator in the position basis.

    ``rho`` is n x n for its grid; a state built with any other shape is a
    ContractError, so no consumer checks it again.

    :meth:`validate` certifies positivity with one Cholesky factorisation of
    the Hermitian part shifted by ``PSD_TOL * I``: success proves that no
    eigenvalue lies below ``-PSD_TOL``.  Only a failed factorisation runs
    ``eigvalsh``, whose smallest eigenvalue then decides and is reported, so
    the two verdicts can differ only within rounding of the ``-PSD_TOL``
    boundary (about ``n * eps * ||rho||``).

    Only the code that builds a state certifies it, and :meth:`validate`
    returns at once for a certified state while its ``rho`` stays read-only.
    States that this module builds from amplitudes (:func:`density_from_pure`
    and :func:`build_bench_state`) are certified by construction and run no
    factorisation (see :func:`_built_state`); one formed by :func:`mix` or
    :func:`random_density_matrix`, or read from a file, is certified by one
    full check (see :func:`_checked_state`).  :meth:`validate` never records
    a pass itself: a state that a caller constructs may share its ``rho``
    with a writeable array, so it is checked in full on every call.
    """

    grid: Grid
    rho: np.ndarray
    _valid: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if np.shape(self.rho) != (self.grid.n, self.grid.n):
            raise ContractError("density matrix shape does not match grid")

    def validate(self) -> None:
        if self._valid and not self.rho.flags.writeable:
            return
        n = self.grid.n
        # rho^H as one fresh C-ordered copy, so the passes below run contiguously
        h = np.conjugate(self.rho.T, order="C", dtype=np.result_type(self.rho, 0.5))
        herm = np.max(np.abs(self.rho - h))
        if not herm <= HERMITICITY_TOL:
            raise ContractError(f"density matrix not Hermitian (residual {herm:.3e})")
        tr = self.rho.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ContractError(f"density matrix trace {tr} deviates from 1")
        h += self.rho
        h *= 0.5
        h[np.diag_indices(n)] += PSD_TOL
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            del h
            lowest = np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T)).min()
            if not lowest >= -PSD_TOL:
                raise ContractError(
                    f"density matrix has eigenvalue {lowest:.3e} < -{PSD_TOL}"
                ) from None


@dataclass(frozen=True)
class BenchConfig:
    """Parameters of the optical-bench scenario.

    ``wedge_tilt`` is the linear phase gradient (rad per unit length) applied
    beyond the plate edge; :func:`wedge_gradient_from_angle` converts a
    physical wedge angle of the glass into this gradient.  ``phi`` is the
    polarization rotation of the weak coupling and ``photon_budget`` the
    expected photon count per camera exposure.
    """

    aperture_halfwidth: float
    edge_position: float
    static_phase_step: float = np.pi
    wedge_tilt: float = 0.0
    edge_loss: float = 0.3
    mixed: bool = False
    phi: float = np.deg2rad(12.92)
    photon_budget: float = 1e8

    def validate(self, grid: Grid) -> None:
        for key, value in (("bench.phase_step", self.static_phase_step),
                           ("bench.wedge_tilt", self.wedge_tilt)):
            if not np.isfinite(value):
                raise ConfigError(f"{key} {value} must be finite")
        half_span = 0.5 * grid.span
        if not 0 < self.aperture_halfwidth <= half_span + 1e-12 * grid.dx:
            raise ConfigError(
                f"aperture_halfwidth {self.aperture_halfwidth} outside grid half-span {half_span}"
            )
        lo = grid.x0 - self.aperture_halfwidth
        hi = grid.x0 + self.aperture_halfwidth
        if not lo < self.edge_position < hi:
            raise ConfigError(
                f"edge_position {self.edge_position} outside aperture [{lo}, {hi}]"
            )
        if not 0.0 <= self.edge_loss <= 1.0:
            raise ConfigError(f"edge_loss {self.edge_loss} not in [0, 1]")
        if not 0.0 < self.phi < 0.5 * np.pi:
            raise ConfigError(f"coupling angle phi {self.phi} not in (0, pi/2)")
        if not 0 <= self.photon_budget < np.inf:
            raise ConfigError(f"photon_budget {self.photon_budget} must be finite and nonnegative")


def wedge_gradient_from_angle(angle: float, wavelength: float, glass_index: float = 1.5) -> float:
    """Transverse phase gradient (rad/length) produced by a glass wedge.

    A wedge of geometric angle ``angle`` changes the optical path linearly
    across the beam: grad = 2 pi (n_glass - 1) angle / lambda.
    """
    return 2.0 * np.pi * (glass_index - 1.0) * angle / wavelength


def pure_from_samples(grid: Grid, raw: np.ndarray) -> PureState:
    """Normalize raw complex samples into a :class:`PureState`.

    Samples of the wrong shape, or with a NaN or infinite entry, are a
    ContractError; the zero vector is a DegenerateInputError.  Samples whose
    norm overflows or underflows are first divided by their largest real or
    imaginary part; all others are divided by their norm alone.
    """
    raw = np.asarray(raw, dtype=complex)
    if raw.shape != (grid.n,):
        raise ContractError(f"sample vector of shape {raw.shape} does not match grid n={grid.n}")
    if not np.isfinite(raw).all():
        raise ContractError("sample vector is not finite")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(raw)
    if norm in (0.0, np.inf) and raw.any():
        # each part on its own: a complex division would overflow 1 / scale
        scale = max(np.abs(raw.real).max(), np.abs(raw.imag).max())
        raw = raw.real / scale + 1j * (raw.imag / scale)
        norm = np.linalg.norm(raw)
    if norm == 0.0:
        raise DegenerateInputError("cannot normalize the zero vector into a state")
    amp = raw / norm
    amp.setflags(write=False)
    state = PureState(grid=grid, amp=amp)
    state.validate()
    return state


def _built_state(grid: Grid, rho: np.ndarray) -> DensityMatrix:
    """Freeze ``rho`` and mark it a valid state without the O(n^3) check.

    Only for ``rho`` formed from the validated amplitudes ``a`` of a
    :class:`PureState` as ``np.outer(a, a.conj())``, optionally with the
    blocks between two complementary sets of sites zeroed.  That is
    ``sum_k b_k b_k^H`` over one or two vectors ``b_k`` that split ``a``, and
    each entry is one rounded complex product ``a_i conj(a_j)``.  So ``rho``
    differs from an exactly Hermitian PSD matrix by ``E`` with
    ``|E_ij| <= sqrt(5) u |a_i| |a_j|`` (u = 2**-53), whose spectral norm is at
    most ``sqrt(5) u ||a||^2``, about 2.5e-16 for any n: over five orders of
    magnitude inside ``HERMITICITY_TOL`` and ``PSD_TOL``.  The trace is
    checked, in O(n).  The one other caller is :func:`_checked_state`, with
    a ``rho`` that has just passed the full check.
    """
    rho.setflags(write=False)
    out = DensityMatrix(grid=grid, rho=rho)
    tr = rho.trace()
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ContractError(f"density matrix trace {tr} deviates from 1")
    object.__setattr__(out, "_valid", True)
    return out


def _checked_state(grid: Grid, rho: np.ndarray) -> DensityMatrix:
    """Run the full check of :meth:`DensityMatrix.validate` on ``rho``, then
    freeze it and mark it a valid state (:func:`_built_state`).

    Only for a ``rho`` that its caller has just made and passes on, so that
    no writeable reference to it is left outside the state.
    """
    DensityMatrix(grid=grid, rho=rho).validate()
    return _built_state(grid, rho)


def density_from_pure(psi: PureState) -> DensityMatrix:
    """Rank-one density matrix |psi><psi|.

    Hermitian and PSD by construction, to within ``sqrt(5) u ||psi||^2``
    (about 2.5e-16), so it runs no Cholesky factorisation (see
    :func:`_built_state`); :func:`mix` and :func:`random_density_matrix` run
    one full check (:func:`_checked_state`).
    """
    psi.validate()
    return _built_state(psi.grid, np.outer(psi.amp, psi.amp.conj()))


def mix(states: list[tuple[DensityMatrix, float]]) -> DensityMatrix:
    """Convex combination of density matrices sharing one grid, certified by
    one full check (:func:`_checked_state`)."""
    if not states:
        raise ConfigError("mix() needs at least one (state, weight) pair")
    grid = states[0][0].grid
    weights = np.array([w for _, w in states], dtype=float)
    if not np.all(weights >= 0):
        raise ConfigError(f"mixture weights must be nonnegative, got {weights.tolist()}")
    total = weights.sum()
    if not abs(total - 1.0) <= WEIGHT_TOL:
        raise ConfigError(
            f"mixture weights {weights.tolist()} sum to {total}, expected 1 within {WEIGHT_TOL}"
        )
    rho = np.zeros((grid.n, grid.n), dtype=complex)
    for state, w in states:
        if state.grid is not grid and state.grid != grid:
            raise ContractError("all mixture components must share one grid")
        rho += w * state.rho
    return _checked_state(grid, rho)


def _bench_masks(cfg: BenchConfig, grid: Grid) -> tuple[np.ndarray, np.ndarray, int]:
    x = grid.coords
    inside = np.abs(x - grid.x0) <= cfg.aperture_halfwidth + 1e-12 * grid.dx
    if not inside.any():
        raise ConfigError("aperture contains no lattice site")
    beyond_edge = x > cfg.edge_position
    inside_idx = np.nonzero(inside)[0]
    edge_site = int(inside_idx[np.argmin(np.abs(x[inside_idx] - cfg.edge_position))])
    return inside, beyond_edge, edge_site


def bench_pure_state(cfg: BenchConfig, grid: Grid) -> PureState:
    """Stationary-plate (pure) bench state.

    Top-hat amplitude over the aperture, amplitude dip ``1 - edge_loss`` on
    the lattice site nearest the plate edge, and phase
    ``step + wedge_tilt * (x - edge)`` on every site with x beyond the edge.
    """
    cfg.validate(grid)
    inside, beyond, edge_site = _bench_masks(cfg, grid)
    x = grid.coords
    amp = inside.astype(complex)
    amp[edge_site] *= 1.0 - cfg.edge_loss
    phase = cfg.static_phase_step + cfg.wedge_tilt * (x - cfg.edge_position)
    amp[beyond] *= np.exp(1j * phase[beyond])
    return pure_from_samples(grid, amp)


def build_bench_state(cfg: BenchConfig, grid: Grid) -> DensityMatrix:
    """Bench density matrix; mixed configurations zero all cross-edge coherences.

    The oscillating plate applies a uniformly random phase to the half beyond
    the edge.  Averaging that phase over a full period kills every coherence
    rho(x, x') with x and x' on opposite sides of the edge and leaves the two
    diagonal blocks untouched, which is how the mixed state is constructed
    here.  The test suite's ``phase_averaged_bench_state`` oracle in
    ``tests/conftest.py`` builds the same state from a finite phase ensemble
    and agrees with this construction to rounding.

    A mixed state is |psi><psi| of the pure amplitudes with the cross-edge
    blocks zeroed in place, which is |a><a| + |b><b| for the parts a and b of
    psi on either side of the edge.  Both branches are Hermitian and PSD by
    construction, to within ``sqrt(5) u ||psi||^2`` (about 2.5e-16), and run
    no Cholesky factorisation (see :func:`_built_state`); :func:`mix` and
    :func:`random_density_matrix` run one full check (:func:`_checked_state`).
    """
    psi = bench_pure_state(cfg, grid)
    if not cfg.mixed:
        return density_from_pure(psi)
    # the coordinates ascend, so the sites beyond the edge are the last ones
    k = int(np.searchsorted(grid.coords, cfg.edge_position, side="right"))
    rho = np.outer(psi.amp, psi.amp.conj())
    rho[:k, k:] = 0.0
    rho[k:, :k] = 0.0
    return _built_state(grid, rho)


def random_density_matrix(grid: Grid, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Random full-or-fixed-rank density matrix, used heavily by the test oracles;
    certified by one full check (:func:`_checked_state`)."""
    rank = grid.n if rank is None else rank
    if not isinstance(rank, (int, np.integer)) or isinstance(rank, bool) or not 1 <= rank <= grid.n:
        raise ConfigError(f"rank {rank!r} is not an integer in [1, {grid.n}]")
    b = rng.standard_normal((grid.n, rank)) + 1j * rng.standard_normal((grid.n, rank))
    rho = b @ b.conj().T
    rho /= rho.trace()
    return _checked_state(grid, rho)
