"""Discretized position/momentum phase space and the single Fourier convention.

Every other module builds on the conventions fixed here:

* natural units, hbar = 1;
* centered lattices, ``x_m = (m - n/2) dx + x0`` and ``p_k = (k - n/2) dp``
  with ``dp dx n = 2 pi`` exactly;
* plane-wave overlap ``<x_m|p_k> = exp(i x_m p_k) / sqrt(n)``.

The n x n overlap matrix is unitary for any center offset, so position and
momentum representations are related by an exact change of basis.  With
``x_m = x_f + m dx``, x_f = ``coords[0]`` the first position, and
``p_0 dx = -pi``,

    x_m p_k = x_f p_k - pi m + 2 pi m k / n,

so U is a signed, phased discrete Fourier transform,

    U = diag(t) F diag(b) / sqrt(n),    F[m, k] = exp(2 pi i m k / n),

with the exact signs ``t_m = (-1)^m`` and ``b_k = exp(i x_f p_k)``, for any
n, odd included, and any center offset.  :attr:`Grid.overlap_matrix` is
built from these factors and forms the exactly reduced DFT table F itself;
no other code forms F.  It is the one representation of U, kept for a dense
propagator V, for :func:`.bayesprop.joint4_tensor` and for the test oracles;
no command-line stage and no scan builds it.

The Dirac transform needs only the signs t.  For any operator op,

    conj(U[m, k]) (op U)[m, k]
        = (1/n) sum_j t_m t_j op[m, j] exp(2 pi i (j - m) k / n),

because |b_k| = 1 and F[j, k] conj(F[m, k]) = exp(2 pi i (j - m) k / n).
The row phases ``a_m = exp(i p_0 x_m)`` are t_m times one global constant,
so ``conj(a_m) a_j = t_m t_j = (-1)^(j - m)`` holds exactly, and the
transform carries no phase rounding however large p_0 x_m is.  With the lag
s = (j - m) mod n, i.e. j = (m + s) mod n, the sum is an inverse DFT over s,
and the forward DFT undoes it:

    d[m, :] = ifft_s(t_m t_j op[m, j]),
    op[m, j] = t_m t_j fft(d)[m, s],

the discrete Kirkwood-Rihaczek distribution, an FFT over lag of the skewed
correlation (A. W. Rihaczek, IEEE Trans. Inf. Theory 14, 369 (1968);
L. Cohen, Time-Frequency Analysis (1995), ch. 8).  Both hold for any n and
any x0.  :meth:`Grid.skew` and :meth:`Grid.unskew` move a block of rows
lo, lo + 1, ... of an n x n array between the (m, j) and the (m, s) layouts
as a diagonal of sliding windows each (one read-only view of the block
repeated along its columns), so a transform runs :meth:`Grid.row_blocks` at
a time into one preallocated output, with temporaries of about ``BLOCK``
numbers each.

Physical units (wavelength, lens focal length, magnification) live
exclusively in :class:`UnitMap`, which converts lattice momentum to a camera
coordinate in the Fourier-transform plane of the bench.

Every :class:`Grid`, built by :func:`make_grid` or directly, refuses in
scalars, before any array is made, a lattice that no array could hold: an n
above ``MAX_N`` (about 7.6e8, the largest n whose n x n complex128 matrix
numpy can shape), coordinates or momenta that overflow, a lambda f^2 that
is not a finite normal float and a camera coordinate that overflows.  No
later stage then meets an overflow in these numbers or prints a warning for
one.

This module also holds the package's three rules for what a public value
is.  A scalar: ``_as_float`` reads a float as ``float`` reads it, with nan
for what ``float`` refuses as not a number and for a flag, and inf of its
sign for an int too large for a float, so the caller's own finiteness or
interval check refuses it, ``_is_int`` takes an integer as a Python or
numpy integer that is not a ``bool``, and ``_is_bool`` a flag as a Python
or numpy ``bool``.  An array: ``_as_array`` reads it with ``np.asarray``, with no
copy, and refuses one that numpy cannot read, whose dtype is not a number's
(a bool, string or object array) or whose shape is not the grid's, each a
ContractError; the four grid-bound types hold what it returns.

Each rule on one kind of input value has one owner as well, which every
caller passes its own name for the value: a camera displacement
(``bayesprop._check_displacement``: the kernels, a propagated distribution
and the config's ``propagation.dz`` entries), a photon budget
(``qstate._check_budget``: the bench config and the sliver readout), the
trace of a state (``qstate._check_trace``: a full check and a state built
from amplitudes), a seed (``weaksim._check_seed``) and the seeds of a noisy
scan (``weaksim.scan_seeds``).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError

TWO_PI = 2.0 * np.pi
BLOCK = 2 ** 14  # numbers in one row block of a streamed n x n product
# the largest n whose n x n complex128 matrix numpy can shape
MAX_N = math.isqrt(np.iinfo(np.intp).max // 16)


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

    def __post_init__(self):
        """Refuse unusable lattice parameters, then hold n as an int, and dx,
        x0 and the unit map's constants as floats.

        Checked in scalars before any array is made, so nothing is allocated: n
        must lie in [2, ``MAX_N``]; dx, x0 and the unit map's constants must be
        numbers (``float`` reads them); the span n dx, the first and last
        coordinate and the largest momentum (n/2) dp must be finite; lambda
        f^2, the scale of every Fresnel chirp, must be a finite normal number;
        and the camera coordinate of the largest momentum, the edge of a
        ``figures`` axis, must be finite.
        """
        n, dx, x0, unit_map = self.n, self.dx, self.x0, self.unit_map
        if not _is_int(n) or not 2 <= n <= MAX_N:
            raise ConfigError(f"n: grid size must be an integer in [2, {MAX_N}], got {n!r}")
        # Python floats overflow to inf, with no warning
        n, dx, x0 = int(n), _as_float(dx), _as_float(x0)
        # the span, the first and last coordinate and the largest momentum must be finite
        if not (dx > 0 and np.isfinite([n * dx, -n / 2 * dx + x0, (n / 2 - 1) * dx + x0,
                                        n / 2 * (TWO_PI / (n * dx))]).all()):
            raise ConfigError(f"dx, x0: lattice spacing {self.dx} must be positive and, with "
                              f"center {self.x0}, give finite coordinates and momenta on n={n} "
                              "sites")
        if unit_map is not None:
            constants = {key.name: _as_float(getattr(unit_map, key.name)) for key in fields(UnitMap)}
            for name, value in constants.items():
                if not 0 < value < np.inf:
                    raise ConfigError(f"{name}: must be positive and finite, "
                                      f"got {getattr(unit_map, name)}")
            unit_map = UnitMap(**constants)
            with np.errstate(over="ignore"):
                scale = np.float64(unit_map.wavelength) * np.float64(unit_map.focal_length) ** 2
                edge = unit_map.camera_coordinate(np.float64(-n / 2 * (TWO_PI / (n * dx))))
            if not (np.finfo(float).tiny <= scale < np.inf and np.isfinite(edge)):
                raise ConfigError(f"wavelength, focal_length, magnification: lambda f^2 = {scale} "
                                  f"must be a normal float and the camera edge {edge} finite")
        for name, value in (("n", n), ("dx", dx), ("x0", x0), ("unit_map", unit_map)):
            object.__setattr__(self, name, value)  # the dataclass is frozen

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
    def _signs(self) -> np.ndarray:
        """The exact signs ``t_m = (-1)^m`` of ``U = diag(t) F diag(b) / sqrt(n)``.

        Held as complex, like the operators they multiply, so that a product
        makes no cast copy of t; with a float t the peak RSS of an n = 1024
        transform-and-propagate chain rose by one n x n complex array.
        """
        t = (1.0 - 2.0 * (np.arange(self.n) % 2)).astype(complex)
        t.setflags(write=False)
        return t

    @cached_property
    def overlap_matrix(self) -> np.ndarray:
        """Unitary matrix U with ``U[m, k] = <x_m|p_k>``, formed as
        ``diag(t) F diag(b) / sqrt(n)``.

        The DFT table ``F[m, k] = exp(2 pi i m k / n)`` is gathered from its
        n roots (:func:`_roots`) with the exponent m k reduced mod n exactly
        in integers before any phase is rounded.
        """
        n = self.n
        exponent = np.outer(np.arange(n), np.arange(n))
        exponent %= n
        u = _roots(np.arange(n), n)[exponent]
        u *= self._signs[:, None] / np.sqrt(n)
        u *= np.exp(1j * self.coords[0] * self.momenta)
        u.setflags(write=False)
        return u

    def row_blocks(self) -> list[tuple[int, int]]:
        """Row ranges ``(lo, hi)`` that cover the n rows in blocks of at most
        ``max(1, BLOCK // n)`` rows, about ``BLOCK`` numbers each."""
        step = max(1, BLOCK // self.n)
        return [(lo, min(lo + step, self.n)) for lo in range(0, self.n, step)]

    def _windows(self, a: np.ndarray, lo: int) -> np.ndarray:
        """The read-only length-n sliding windows of ``[a, a]``, a block of
        rows lo, lo + 1, ... of an n x n array repeated along its columns:
        ``windows[i, c, s] = [a, a][i, c + s]`` for c in [0, n]."""
        a = _as_array(a, "array")
        if not (_is_int(lo) and a.ndim == 2 and a.shape[1] == self.n
                and 0 <= lo <= self.n - a.shape[0]):
            raise ContractError(f"array of shape {a.shape} at row {lo} does not fit grid n={self.n}")
        return sliding_window_view(np.concatenate((a, a), axis=1), self.n, axis=1)

    def skew(self, a: np.ndarray, lo: int = 0) -> np.ndarray:
        """``g[i, s] = a[i, (lo + i + s) mod n]``, a read-only view.

        ``a`` holds rows lo, lo + 1, ... of an n x n array, all of them by
        default.  Row i of g is the window of ``[a, a]`` row i that starts at
        column lo + i: the diagonal of the sliding windows at offset lo.
        """
        return np.diagonal(self._windows(a, lo), lo).T

    def unskew(self, g: np.ndarray, lo: int = 0) -> np.ndarray:
        """``a[i, j] = g[i, (j - lo - i) mod n]``, the inverse of :meth:`skew`
        for the same ``lo``, a read-only view.

        Row i of a is the window of ``[g, g]`` row i that starts at column
        n - lo - i: the same diagonal, taken with the windows reversed.
        """
        return np.diagonal(self._windows(g, lo)[:, ::-1], lo).T

    def require_unit_map(self) -> UnitMap:
        if self.unit_map is None:
            raise ConfigError("grid has no unit_map; physical constants are required here")
        return self.unit_map


def _roots(j: np.ndarray, n: int) -> np.ndarray:
    """The roots ``exp(2 pi i j / n)`` for integers j in [0, n), each taken at
    j reduced into (-n/2, n/2], so that no phase above pi is rounded."""
    return np.exp(np.pi * 1j * (2 * np.where(2 * j > n, j - n, j) / n))


def _as_float(value) -> float:
    """``float(value)``, or nan for a flag (:func:`_is_bool`) and for a value
    that ``float`` refuses as not a number, which every check for a positive
    or finite number refuses.  A number too large for a float (an int such as
    10 ** 400) reads as inf of its sign, as ``float("1e400")`` does, and every
    such check refuses that too."""
    with contextlib.suppress(TypeError, ValueError):
        try:
            return math.nan if _is_bool(value) else float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    return math.nan


def _is_int(value) -> bool:
    """Whether ``value`` is an integer, a Python ``int`` or a numpy integer,
    and not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_bool(value) -> bool:
    """Whether ``value`` is a flag, a Python ``bool`` or a numpy ``bool_``."""
    return isinstance(value, (bool, np.bool_))


def _as_array(a, what: str, kinds: str = "iufc", shape: tuple | None = None) -> np.ndarray:
    """``a`` read with ``np.asarray``, so an array comes back as itself, with
    no copy.  One that numpy cannot read (a ragged nest of lists, say), whose
    dtype kind is not in ``kinds`` (a bool, string or object array never is),
    or whose shape is not ``shape``, when one is given, is a ContractError."""
    try:
        a = np.asarray(a)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"{what} cannot be read as an array ({exc})") from None
    if a.dtype.kind not in kinds:
        raise ContractError(f"{what} of dtype {a.dtype} are not "
                            f"{'numbers' if 'c' in kinds else 'real numbers'}")
    if shape is not None and a.shape != shape:
        raise ContractError(f"{what} shape {a.shape} does not match grid n={shape[0]}")
    return a


def make_grid(n: int, dx: float, x0: float = 0.0, unit_map: UnitMap | None = None) -> Grid:
    """Build a :class:`Grid`, which refuses unusable lattice parameters and
    non-positive or non-finite unit-map constants (see :meth:`Grid.__post_init__`)."""
    return Grid(n=n, dx=dx, x0=x0, unit_map=unit_map)
