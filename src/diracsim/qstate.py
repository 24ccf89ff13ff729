"""Pure and mixed states, and the optical-bench scenario builder.

The bench scenario is a collimated beam clipped by a hard aperture, with a
glass plate covering the half beyond ``edge_position``.  A stationary plate
adds a static phase step (plus an optional linear phase gradient from a
wedge in the glass); an oscillating plate randomizes that phase, which after
time averaging destroys all coherence between the two halves and leaves a
mixed state.  Scattering at the plate edge is modeled as a single-site
amplitude dip.
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
    """Normalized position-basis amplitudes on a grid."""

    grid: Grid
    amp: np.ndarray

    def validate(self) -> None:
        if self.amp.shape != (self.grid.n,):
            raise ContractError("amplitude length does not match grid")
        norm = float(np.sum(np.abs(self.amp) ** 2))
        if not abs(norm - 1.0) <= 1e-10:
            raise ContractError(f"state norm {norm} deviates from 1 beyond 1e-10")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amp) ** 2


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite operator in the position basis.

    A passing :meth:`validate` is remembered while ``rho`` is read-only, so
    the O(n^3) eigenvalue check runs once per state; a writeable ``rho`` is
    checked on every call.
    """

    grid: Grid
    rho: np.ndarray
    _valid: bool = field(default=False, init=False, repr=False)

    def validate(self) -> None:
        if self._valid and not self.rho.flags.writeable:
            return
        n = self.grid.n
        if self.rho.shape != (n, n):
            raise ContractError("density matrix shape does not match grid")
        herm = np.max(np.abs(self.rho - self.rho.conj().T))
        if not herm <= HERMITICITY_TOL:
            raise ContractError(f"density matrix not Hermitian (residual {herm:.3e})")
        tr = self.rho.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ContractError(f"density matrix trace {tr} deviates from 1")
        evals = np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T))
        if not evals.min() >= -PSD_TOL:
            raise ContractError(f"density matrix has eigenvalue {evals.min():.3e} < -{PSD_TOL}")
        if not self.rho.flags.writeable:
            object.__setattr__(self, "_valid", True)

    def purity(self) -> float:
        # Tr rho^2 = sum |rho_ij|^2 for a Hermitian matrix
        return float(np.real(np.sum(self.rho * self.rho.conj())))


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
    """Normalize raw complex samples into a :class:`PureState`."""
    raw = np.asarray(raw, dtype=complex)
    if raw.shape != (grid.n,):
        raise ContractError(f"sample vector of shape {raw.shape} does not match grid n={grid.n}")
    norm = np.linalg.norm(raw)
    if norm == 0.0:
        raise DegenerateInputError("cannot normalize the zero vector into a state")
    amp = raw / norm
    amp.setflags(write=False)
    state = PureState(grid=grid, amp=amp)
    state.validate()
    return state


def density_from_pure(psi: PureState) -> DensityMatrix:
    """Rank-one density matrix |psi><psi|."""
    psi.validate()
    rho = np.outer(psi.amp, psi.amp.conj())
    rho.setflags(write=False)
    out = DensityMatrix(grid=psi.grid, rho=rho)
    out.validate()
    return out


def mix(states: list[tuple[DensityMatrix, float]]) -> DensityMatrix:
    """Convex combination of density matrices sharing one grid."""
    if not states:
        raise ConfigError("mix() needs at least one (state, weight) pair")
    grid = states[0][0].grid
    weights = np.array([w for _, w in states], dtype=float)
    if np.any(weights < 0):
        raise ConfigError(f"mixture weights must be nonnegative, got {weights.tolist()}")
    total = weights.sum()
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ConfigError(f"mixture weights sum to {total}, expected 1 within {WEIGHT_TOL}")
    rho = np.zeros((grid.n, grid.n), dtype=complex)
    for state, w in states:
        if state.grid is not grid and state.grid != grid:
            raise ContractError("all mixture components must share one grid")
        rho += w * state.rho
    rho.setflags(write=False)
    out = DensityMatrix(grid=grid, rho=rho)
    out.validate()
    return out


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
    """
    pure = density_from_pure(bench_pure_state(cfg, grid))
    if not cfg.mixed:
        return pure
    _, beyond, _ = _bench_masks(cfg, grid)
    cross = np.logical_xor.outer(beyond, beyond)
    rho = pure.rho.copy()
    rho[cross] = 0.0
    rho.setflags(write=False)
    out = DensityMatrix(grid=grid, rho=rho)
    out.validate()
    return out


def random_density_matrix(grid: Grid, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Random full-or-fixed-rank density matrix, used heavily by the test oracles."""
    rank = grid.n if rank is None else rank
    if not 1 <= rank <= grid.n:
        raise ConfigError(f"rank {rank} outside [1, {grid.n}]")
    b = rng.standard_normal((grid.n, rank)) + 1j * rng.standard_normal((grid.n, rank))
    rho = b @ b.conj().T
    rho /= rho.trace()
    rho.setflags(write=False)
    out = DensityMatrix(grid=grid, rho=rho)
    out.validate()
    return out
