"""Discretized position/momentum phase space and the single Fourier convention.

Every other module builds on the conventions fixed here:

* natural units, hbar = 1;
* centered lattices, ``x_m = (m - n/2) dx + x0`` and ``p_k = (k - n/2) dp``
  with ``dp dx n = 2 pi`` exactly;
* plane-wave overlap ``<x_m|p_k> = exp(i x_m p_k) / sqrt(n)``.

The n x n overlap matrix is unitary for any center offset, so position and
momentum representations are related by an exact change of basis.  Because
``dp dx n = 2 pi``, it is a phased discrete Fourier transform,

    U = diag(a) F diag(b) / sqrt(n),    F[m, k] = exp(2 pi i m k / n),

with ``a_m = exp(i p_0 x_m)`` and ``b_k = exp(i x_0 (p_k - p_0))`` for any n,
odd included, and any x0.  :meth:`Grid.matmul_overlap` and
:meth:`Grid.matmul_overlap_adjoint` apply U and U^dag with an FFT in
O(n log n) per row, and :attr:`Grid.overlap_matrix` is built from the same
phases and an exactly reduced DFT table, so the dense entries and the FFT
describe one matrix.

Physical units (wavelength, lens focal length, magnification) live
exclusively in :class:`UnitMap`, which converts lattice momentum to a camera
coordinate in the Fourier-transform plane of the bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ContractError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class UnitMap:
    """Physical constants tying lattice momentum to a camera position.

    The conversion is ``x_cam = p * f * M * lambda / (2 pi)``, i.e. momentum
    ``p`` appears at transverse position ``x_cam`` on a camera sensor one
    focal length behind the Fourier-transform lens, after magnification M.
    """

    wavelength: float
    focal_length: float
    magnification: float = 1.0

    def ft_plane_coordinate(self, p):
        """Unmagnified Fourier-plane coordinate of momentum ``p``."""
        return p * self.focal_length * self.wavelength / TWO_PI

    def camera_coordinate(self, p):
        """Magnified camera coordinate of momentum ``p``."""
        return self.magnification * self.ft_plane_coordinate(p)

    def momentum_from_camera(self, x_cam):
        """Inverse of :meth:`camera_coordinate`."""
        return x_cam * TWO_PI / (self.focal_length * self.magnification * self.wavelength)


@dataclass(frozen=True)
class Grid:
    """An n-point position lattice with its conjugate momentum lattice.

    Values are immutable after construction and safe to share across threads;
    the derived coordinate arrays are cached read-only.
    """

    n: int
    dx: float
    x0: float = 0.0
    unit_map: UnitMap | None = None

    @property
    def dp(self) -> float:
        """Momentum spacing; ``dp * dx * n == 2 pi`` by construction."""
        return TWO_PI / (self.n * self.dx)

    @property
    def span(self) -> float:
        return self.n * self.dx

    @cached_property
    def coords(self) -> np.ndarray:
        x = (np.arange(self.n) - self.n / 2) * self.dx + self.x0
        x.setflags(write=False)
        return x

    @cached_property
    def momenta(self) -> np.ndarray:
        p = (np.arange(self.n) - self.n / 2) * self.dp
        p.setflags(write=False)
        return p

    @cached_property
    def _fourier_phases(self) -> tuple[np.ndarray, np.ndarray]:
        """The phase vectors a, b of ``U = diag(a) F diag(b) / sqrt(n)``."""
        a = np.exp(1j * self.momenta[0] * self.coords)
        b = np.exp(1j * self.coords[0] * (np.arange(self.n) * self.dp))
        a.setflags(write=False)
        b.setflags(write=False)
        return a, b

    @cached_property
    def overlap_matrix(self) -> np.ndarray:
        """Unitary matrix U with ``U[m, k] = <x_m|p_k>``."""
        n = self.n
        a, b = self._fourier_phases
        idx = np.arange(n)
        exponent = np.outer(idx, idx)
        exponent %= n  # the DFT exponent m k mod n, reduced exactly in integers
        u = np.exp(TWO_PI * 1j * idx / n)[exponent]
        u *= a[:, None] / np.sqrt(n)
        u *= b
        u.setflags(write=False)
        return u

    def _check_last_axis(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        if a.ndim == 0 or a.shape[-1] != self.n:
            raise ContractError(f"array of shape {a.shape} does not match grid n={self.n}")
        return a

    def matmul_overlap(self, a: np.ndarray) -> np.ndarray:
        """``a @ U`` along the last axis of ``a``, by FFT."""
        a = self._check_last_axis(a)
        pa, pb = self._fourier_phases
        out = np.fft.ifft(a * pa, norm="ortho")
        out *= pb
        return out

    def matmul_overlap_adjoint(self, a: np.ndarray) -> np.ndarray:
        """``a @ U^dag`` along the last axis of ``a``, by FFT."""
        a = self._check_last_axis(a)
        pa, pb = self._fourier_phases
        out = np.fft.fft(a * pb.conj(), norm="ortho")
        out *= pa.conj()
        return out

    def require_unit_map(self) -> UnitMap:
        if self.unit_map is None:
            raise ConfigError("grid has no unit_map; physical constants are required here")
        return self.unit_map


def make_grid(n: int, dx: float, x0: float = 0.0, unit_map: UnitMap | None = None) -> Grid:
    """Build a :class:`Grid`, rejecting unusable lattice parameters and
    non-positive or non-finite unit-map constants."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ConfigError(f"grid size must be an integer, got {n!r}")
    if n < 2:
        raise ConfigError(f"grid size must be at least 2, got {n}")
    if not 0 < dx < np.inf:
        raise ConfigError(f"dx: lattice spacing must be positive and finite, got {dx}")
    if not np.isfinite(x0):
        raise ConfigError(f"x0: lattice center must be finite, got {x0}")
    if unit_map is not None:
        for name in ("wavelength", "focal_length", "magnification"):
            value = getattr(unit_map, name)
            if not 0 < value < np.inf:
                raise ConfigError(f"{name}: must be positive and finite, got {value}")
    return Grid(n=int(n), dx=float(dx), x0=float(x0), unit_map=unit_map)


def overlap(grid: Grid, m: int, k: int) -> complex:
    """Plane-wave overlap ``<x_m|p_k>`` for one pair of lattice indices."""
    if not (0 <= m < grid.n and 0 <= k < grid.n):
        raise ContractError(f"indices ({m}, {k}) out of range for n={grid.n}")
    return complex(grid.overlap_matrix[m, k])


def _check_vector(grid: Grid, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (grid.n,):
        raise ContractError(f"vector of shape {v.shape} does not match grid n={grid.n}")
    return v


def to_momentum(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Momentum representation ``v~[k] = sum_m <p_k|x_m> v[m]`` (unitary)."""
    v = _check_vector(grid, v)
    return grid.matmul_overlap(v.conj()).conj()


def from_momentum(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_momentum`."""
    v = _check_vector(grid, v)
    return grid.matmul_overlap_adjoint(v.conj()).conj()
