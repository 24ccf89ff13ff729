"""Bayesian propagation of the Dirac distribution to displaced camera planes.

Moving the camera a distance dz past the Fourier-transform plane changes the
strong measurement from momentum to a hybrid observable K', position on the
displaced camera.  Because the input plane sits one focal length before the
FT lens, free propagation past the FT plane acts on the input-plane state as
a pure position-diagonal defocus chirp,

    V(dz) = diag_m exp(-i pi dz x_m^2 / (lambda f^2)) = diag_m exp(-i s (m - n/2)^2),

with x_m = (m - n/2) dx measured from the grid center (the optical axis; x0
only labels the lattice and does not enter) and the one scalar scale
s = pi dz dx^2 / (lambda f^2).  The offsets m - n/2 and their squares are
exact, so the phase carries only the rounding of s and of one product, and
no coordinate is squared.  The displaced camera pixels correspond to the
pulled-back states ``|k'_j> = V^dag |p_j>``.  :func:`fresnel_unitary` returns only that
diagonal; a dense unitary is accepted as well, for propagators that are not
diagonal in x.  The state-independent complex conditional

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

A unitary kernel stores only its V.  For a dense V, :func:`bayes_propagate`
applies it as ``e = conj(K) * (rho K)`` with ``K = V^dag U`` and
rho = :func:`.reconstruct_density` of d, the weighting taken entrywise: two
n^3 products, with neither the n^3 conditional nor an n x n factor of it
kept.  For the chirp V = diag(c) the Bayes sum has a closed form: the
propagated distribution is the Dirac distribution of V rho V^dag.  With
``U = diag(t) F diag(b) / sqrt(n)`` and the exact signs t_m = (-1)^m (see
:mod:`.lattice`), an FFT along the momentum index of d gives

    Dh[m, s] = sum_k d[m, k] exp(-2 pi i s k / n) = t_m t_j rho[m, j],

j = (m + s) mod n: the position-difference domain, where b has cancelled.
V rho V^dag multiplies rho[m, j] by c_m conj(c_j), which leaves t alone, so

    e[m, k] = c_m ifft_s(Dh[m, s] conj(c)[(m + s) mod n])[k]

for any n and any x0: one FFT pair and two scalings, with neither U nor K
formed.  The analytic kernel factors as
``cond[j, m, kp] = col[m, j] W[kp, j] inv[m, kp]``.  Its wavelet W depends
only on the pixel separation, ``W[kp, j] = row[|kp - j|]``, and its lens is
exactly a signed DFT matrix: x_m x_cam_k / (f lambda) = (m - n/2)(k - n/2)/n
because dp dx n = 2 pi, so

    col[m, k] = exp(-i pi n/2) t_m t_k conj(F[m, k]),

F[m, k] = exp(2 pi i m k / n) and exp(-i pi n/2) = (-i)^n taken exactly.
The kernel stores only the length-n generator ``row``; no n x n array
outlives :func:`bayes_propagate`, which forms ``inv`` in its own output.  The
product with W is a zero-padded, length-2n FFT convolution, and the
normalization ``col @ W`` one FFT per row of W, each O(n^2 log n), never an
n^3 matrix product.  W is also symmetric about its anti-diagonal,
W[n-1-kp, j] = W[kp, n-1-j], so the normalization, taken without the row
constant below (``norm[m, kp] = fft_j(t_j W[kp, j])[m]``), obeys, with j
replaced by n-1-j,

    norm[m, n-1-kp] = t_{n-1} w^m norm[(n - m) mod n, kp],    w = exp(2 pi i / n),

exactly, and ``inv = 1 / norm`` the same with w^-m.  Column n-1-kp mirrors
column kp, and for odd n the middle column is its own mirror, so only the
rows kp < ceil(n/2) of W are transformed: half the normalization's FFTs.
Each row m of the other columns of ``inv`` is row (-m) mod n of the first
ones, reversed, times t_{n-1} w^-m = t_{n-1} w^((-m) mod n), a root taken
as :attr:`.Grid.overlap_matrix` takes its roots (:func:`.lattice._roots`).
A mirrored norm has the modulus of the one it comes from, so the check that
none vanishes or is infinite, made on the transformed columns, covers them
all.
The lens is never formed either: since

    t_k conj(F[m, k]) = exp(2 pi i k (n - 2m) / 2n),

multiplying entry k < n of row m of the length-2n ``ifft`` by it is the
same as rolling row m of the spectrum right by (n - 2m) mod 2n bins before
the ``ifft``, for any n, odd included.  The row constant (-i)^n t_m of
``col`` multiplies row m of the normalization ``col @ W`` as well, so it
cancels between ``inv`` and the lens and neither carries it.  Every n x n
product here fills one preallocated output a block of
:meth:`.Grid.row_blocks` at a time, so it holds the output and a few
blocks.

Bayes propagation keeps the distribution classical-like: e sums to 1 and its
position and camera marginals are real and nonnegative, and
:meth:`PropagatedDistribution.validate` checks that with the one helper that
:meth:`.DiracDistribution.validate` uses, at its own ``PROPAGATED_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, DegenerateKernelError, NumericalIntegrityError
from .lattice import Grid, TWO_PI, _as_array, _as_float, _roots
from .qstate import BenchConfig, DensityMatrix
from .dirac import DiracDistribution, _check_quasi_probability, reconstruct_density
from . import weaksim

KIND_UNITARY = "discrete-unitary"
KIND_ANALYTIC = "analytic-fresnel"
PROPAGATED_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PropagatorKernel:
    """Conditional quasi-probability kernel for one camera displacement.

    A unitary kernel sets only ``v``, the diagonal or the dense matrix of
    V; :attr:`k_basis` derives the displaced-plane position eigenstates
    from it on each access (an n x n array, which :func:`bayes_propagate`
    forms for a dense V only).  The analytic kernel sets only ``row``, the
    length-n generator of the symmetric Toeplitz wavelet of
    ``cond[j, m, kp] = col[m, j] * row[|kp - j|] * inv[m, kp]``.  It holds
    O(n) numbers, as a unitary kernel of a diagonal V does.  Neither the
    lens ``col`` (module docstring) nor the normalization ``inv`` is stored:
    :func:`bayes_propagate` applies ``col`` as a roll of each row's spectrum
    and forms ``inv`` in its output, each without the row constant
    (-i)^n t_m that the two share and that cancels.

    The builders call the constructor, so a kernel built directly holds
    their checks.  A ``dz`` that ``float`` refuses, or that is negative,
    infinite or NaN, is a ConfigError, as in :func:`fresnel_unitary`; ``dz``
    is stored as a float.  Exactly one of ``v`` and ``row`` is set, it is an
    array of numbers (:func:`.lattice._as_array`), ``v`` passes the
    unitarity check of :func:`build_kernel_unitary` and ``row`` has shape
    (n,); anything else is a ContractError.  The kernel keeps a read-only
    complex copy of the one it is given, so an edit to the caller's array
    changes no kernel.  ``kind`` is not an argument: it is ``KIND_UNITARY``
    when ``v`` is set and ``KIND_ANALYTIC`` when ``row`` is.
    """

    grid: Grid
    dz: float
    v: np.ndarray | None = None
    row: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.grid.n
        object.__setattr__(self, "dz", _check_displacement(self.dz))
        if (self.v is None) == (self.row is None):
            raise ContractError("a propagator kernel sets exactly one of v and row")
        if self.v is not None:
            name, held = "v", _checked_unitary(self.grid, self.v)
        else:
            name, held = "row", np.array(_as_array(self.row, "kernel row", shape=(n,)), complex)
        held.setflags(write=False)
        object.__setattr__(self, name, held)

    @property
    def kind(self) -> str:
        """``KIND_UNITARY`` if ``v`` is set, else ``KIND_ANALYTIC``."""
        return KIND_ANALYTIC if self.v is None else KIND_UNITARY

    @property
    def k_basis(self) -> np.ndarray | None:
        """Columns V^dag |p_j> in the x basis; None for the analytic kernel."""
        if self.v is None:
            return None
        return _adjoint_times(self.v, self.grid.overlap_matrix)


@dataclass(frozen=True, eq=False)
class PropagatedDistribution:
    """Complex n x n array e[m, k'] over (weak position, displaced camera position).

    ``dz`` is checked as :class:`PropagatorKernel` checks it, and stored as
    a float: one that ``float`` refuses, or that is negative, infinite or
    NaN, is the same ConfigError.  A ``kind`` that is not a ``str`` is a
    ContractError.  ``e`` is held as :func:`.lattice._as_array` reads it; a
    distribution built with anything but numbers of that shape is a
    ContractError, so no consumer checks it again.
    """

    grid: Grid
    dz: float
    e: np.ndarray
    kind: str

    def __post_init__(self) -> None:  # the dataclass is frozen
        n = self.grid.n
        object.__setattr__(self, "dz", _check_displacement(self.dz))
        if not isinstance(self.kind, str):
            raise ContractError(f"propagated distribution kind must be a str, got {self.kind!r}")
        object.__setattr__(self, "e", _as_array(self.e, "propagated", shape=(n, n)))

    def validate(self) -> None:
        """Check, to ``PROPAGATED_TOL``, that e sums to 1 and that its position
        and camera marginals are real and nonnegative, as
        :meth:`.DiracDistribution.validate` checks d."""
        _check_quasi_probability(self.e, PROPAGATED_TOL, "propagated distribution", "camera")


def fresnel_unitary(grid: Grid, dz: float) -> np.ndarray:
    """Paraxial free-space propagation by dz in the camera region, as the
    diagonal of its x-basis unitary.

    The camera-region angular spectrum lives on the input-plane position
    lattice, so the transfer phase exp(-i dz lambda kappa^2 / 4 pi) becomes
    the x-diagonal chirp exp(-i pi dz x^2 / (lambda f^2)), x measured from
    the grid center.  In lattice units that is exp(-i s (m - n/2)^2) with
    the one scalar s = pi dz dx^2 / (lambda f^2), evaluated as
    (pi dz dx / (lambda f^2)) dx so that no coordinate is squared; x0 does
    not enter.  Returns that length-n unit-modulus vector; V(0) is exactly
    all ones.  A dz that ``float`` refuses, or that is negative, infinite or
    NaN, is a ConfigError, and so is a dz whose largest phase s (n/2)^2 is
    not finite, found in scalars before any array is made
    (:func:`.make_grid` has already checked lambda f^2).
    """
    units = grid.require_unit_map()
    lam_f2 = float(units.wavelength * units.focal_length ** 2)  # a normal float (make_grid)
    scale = np.pi * _check_displacement(dz) * grid.dx / lam_f2 * grid.dx  # pi dz dx^2/(lambda f^2)
    if not scale * (grid.n / 2) ** 2 < np.inf:  # the phase at m = 0; also False for NaN
        raise ConfigError(f"camera displacement dz {dz!r}: the chirp phase is not finite")
    return np.exp(-1j * (scale * (np.arange(grid.n) - grid.n / 2) ** 2))


def _check_displacement(dz: float, what: str = "camera displacement dz") -> float:
    """``dz`` as a float; a camera displacement that is not a number (one
    that ``float`` refuses), or is negative, infinite or NaN, is a
    ConfigError, which names it as ``what``.  The one rule for every
    displacement: the kernels, :class:`PropagatedDistribution` and the
    config's ``propagation.dz`` entries."""
    if 0 <= (value := _as_float(dz)) < np.inf:  # False for NaN
        return value
    raise ConfigError(f"{what} {dz!r} must be finite and nonnegative")


def _checked_unitary(grid: Grid, v: np.ndarray) -> np.ndarray:
    """A complex copy of ``v``, after checking that it is a unitary V.

    ``v`` is either the length-n diagonal of V or the dense n x n matrix.
    For a diagonal, the defect max |V^dag V - 1| is max ||c|^2 - 1|, so both
    forms pass the same check in O(n) and O(n^3) respectively.
    """
    v = np.array(_as_array(v, "unitary"), complex)
    n = grid.n
    if v.shape == (n,):
        with np.errstate(over="ignore"):  # |c|^2 that overflows is an infinite defect
            defect = np.max(np.abs(np.abs(v) ** 2 - 1.0))
    elif v.shape == (n, n):
        defect = np.max(np.abs(v.conj().T @ v - np.eye(n)))
    else:
        raise ContractError(f"unitary shape {v.shape} does not match grid n={n}")
    if not defect <= 1e-12:
        raise ContractError(f"matrix is not unitary (defect {defect:.3e})")
    return v


def _adjoint_times(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """V^dag a, for V given as its length-n diagonal or as a dense matrix."""
    if v.ndim == 1:
        return v.conj()[:, None] * a
    return v.conj().T @ a


def build_kernel_unitary(grid: Grid, v: np.ndarray, dz: float = 0.0) -> PropagatorKernel:
    """Exact kernel from a discrete unitary V; its k' states are V^dag |p_j>.

    ``v`` is the length-n diagonal of V, as :func:`fresnel_unitary` returns
    it, or a dense n x n unitary.  Completeness (sum over k' equal to one)
    holds identically, so the Bayes sum reproduces displaced-basis
    expectation values exactly.  ``dz`` is recorded as provenance only; it
    plays no role in the construction, but a ``dz`` that ``float`` refuses,
    or that is negative, infinite or NaN, is a ConfigError, as in
    :func:`fresnel_unitary`.  This is the
    :class:`PropagatorKernel` constructor, which checks ``dz`` and V, once,
    and stores only a read-only copy of the checked V.
    """
    return PropagatorKernel(grid=grid, dz=dz, v=v)


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

    The camera pixels are equally spaced, so the wavelet between pixels j
    and kp depends on |j - kp| only; ``row[s]`` is its value at separation
    s.  Only ``row`` is stored; :func:`bayes_propagate` forms the
    normalization from it, and refuses one that vanishes or is not finite.
    The separations are taken as ``hypot(dz, .)``, so no square under- or
    overflows, and a dz whose wavelet 1/r at r = dz or whose phase
    2 pi r / lambda at the widest separation is not finite is a ConfigError,
    found in scalars before any array is made.
    """
    units = grid.require_unit_map()
    value = _check_displacement(dz)
    if value == 0:
        raise DegenerateKernelError(
            "analytic kernel is singular at dz = 0; build the unitary kernel instead"
        )
    cam = units.ft_plane_coordinate(grid.momenta)
    # in Python floats, which overflow to inf with no warning
    widest = math.hypot(value, float(cam[-1]) - float(cam[0]))
    if not (1.0 / value < math.inf and TWO_PI * widest / units.wavelength < math.inf):
        raise ConfigError(f"camera displacement dz {dz!r}: the analytic wavelet 1/r or its "
                          f"phase 2 pi r / lambda is not finite")
    r = np.hypot(value, cam - cam[0])
    wavelet = np.exp(-1j * TWO_PI * r / units.wavelength) / r
    return PropagatorKernel(grid=grid, dz=dz, row=wavelet)


def bayes_propagate(dist: DiracDistribution, kernel: PropagatorKernel) -> PropagatedDistribution:
    """Single-variable Bayes update e[m, k'] = sum_kp cond[k', m, kp] d[m, kp].

    A chirp V = diag(c) takes the closed form of the module docstring,
    ``e[m, k] = c_m ifft_s(fft(d)[m, s] conj(c)[(m + s) mod n])[k]``; the
    skewed chirp is a read-only sliding-window view of conj(c) repeated, so
    U, K and every complex division are avoided.  A dense V reconstructs
    rho (:func:`.reconstruct_density`) and forms ``conj(K) * (rho K)``,
    ``K = V^dag U`` from :attr:`PropagatorKernel.k_basis`.  The analytic
    kernel forms ``col * ((inv * d) @ W)`` from its generator ``row`` in two
    passes over one preallocated output.  The lens of the module docstring
    puts its row constant exp(-i pi n/2) t_m on row m of both ``col`` and
    the normalization ``col @ W``, where it cancels, so the normalization
    is taken without it,

        norm[m, kp] = fft_j(t_j W[kp, j])[m],

    one FFT per row of W, read as a sliding-window view of ``row``; the
    first pass writes ``inv = 1 / norm`` into the output a block of W's
    rows (a block of columns of ``inv``) at a time, and a norm that vanishes
    or is not finite is a NumericalIntegrityError, raised before any
    division.  It stops at row ceil(n/2): by the wavelet's mirror symmetry
    (module docstring), ``inv[m, n-1-kp] = t_{n-1} w^-m inv[(-m) mod n, kp]``,
    so the other columns are filled a row block at a time as a gather of
    the transformed ones, reversed, times a length-n phase; a mirrored entry
    has the modulus of its source, so the check has covered it.  The
    second pass takes
    the product with the Toeplitz W by a length-2n FFT convolution: each row
    block of ``inv``, times d, is written into the left half of a zeroed
    (b, 2n) block, and row m of its spectrum, times the wavelet spectrum,
    is rolled right by (n - 2m) mod 2n bins before the ``ifft``, which
    applies the rest of the lens ``col`` with no table of it (module
    docstring).
    The result overwrites the block of ``inv`` it was read from.  The chirp
    product likewise fills its output a block of :meth:`.Grid.row_blocks`
    at a time.  Through a unitary kernel, an entry that overflows (a
    distribution with entries near the float limit) is left inf or nan,
    with no warning, as in :func:`.reconstruct_density`.
    """
    grid = kernel.grid
    if dist.grid != grid:
        raise ContractError("distribution and kernel live on different grids")
    v, n = kernel.v, grid.n
    if v is not None and v.ndim == 2:
        k = kernel.k_basis
        e = reconstruct_density(dist).rho @ k
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is left inf or nan
            e *= k.conj()
    elif v is not None:
        h = v.conj()
        skewed = sliding_window_view(np.concatenate((h, h[:-1])), n)  # row m: h[(m + s) % n]
        e = np.empty((n, n), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is left inf or nan
            for lo, hi in grid.row_blocks():
                rows = np.fft.fft(dist.d[lo:hi], axis=1)
                rows *= skewed[lo:hi]
                np.multiply(np.fft.ifft(rows, axis=1), v[lo:hi, None], out=e[lo:hi])
    else:
        row, t = kernel.row, grid._signs
        # row kp of W is [row[n-1], ..., row[1], row[0], ..., row[n-1]] read from n - 1 - kp
        w = sliding_window_view(np.concatenate((row[:0:-1], row)), n)[::-1]
        half = (n + 1) // 2  # columns kp >= half of inv are the mirror of those below
        e = np.empty((n, n), dtype=complex)  # holds inv = 1 / norm until each row block is done
        for lo, hi in grid.row_blocks():
            if lo >= half:
                break
            hi = min(hi, half)
            norm = np.fft.fft(w[lo:hi] * t, axis=1)  # norm[:, lo:hi], transposed
            size = np.abs(norm)
            if not (size.min() > 0.0 and size.max() < np.inf):  # also False for NaN
                raise NumericalIntegrityError(
                    "analytic kernel normalization vanished or is not finite")
            np.divide(1.0, norm.T, out=e[:, lo:hi])
        del norm, size  # freed before the convolution's own blocks are taken
        # inv[m, n-1-kp] = t_{n-1} exp(-2 pi i m/n) inv[-m mod n, kp] (module docstring)
        m = np.arange(n)
        phase = t[-1] * _roots(-m % n, n)
        for lo, hi in grid.row_blocks():
            np.multiply(e[-m[lo:hi] % n, n - half - 1::-1], phase[lo:hi, None], out=e[lo:hi, half:])
        # W is the top-left n x n corner of this 2n-point circulant
        spectrum = np.fft.fft(np.concatenate((row, [0.0], row[:0:-1])))
        buf = np.empty((grid.row_blocks()[0][1], 2 * n), dtype=complex)
        for lo, hi in grid.row_blocks():
            b = hi - lo
            buf[:b, n:] = 0.0
            np.multiply(e[lo:hi], dist.d[lo:hi], out=buf[:b, :n])
            rows = np.fft.fft(buf[:b], axis=1)
            for i, m in enumerate(range(lo, hi)):  # buf now takes the rolled product
                o = (2 * m - n) % (2 * n)  # row m rolled right by n - 2m bins starts at bin o
                np.multiply(rows[i, o:], spectrum[o:], out=buf[i, :2 * n - o])
                np.multiply(rows[i, :o], spectrum[:o], out=buf[i, 2 * n - o:])
            e[lo:hi] = np.fft.ifft(buf[:b], axis=1)[:, :n]
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
    grid, u = rho.grid, rho.grid.overlap_matrix
    q_basis = _adjoint_times(_checked_unitary(grid, v1), np.eye(grid.n))
    k_basis = _adjoint_times(_checked_unitary(grid, v2), u)
    p2k = u.conj().T @ k_basis
    k2q = k_basis.conj().T @ q_basis
    q2x = q_basis.conj().T
    xrp = rho.rho @ u
    return np.einsum("kc,cb,ba,ak->abck", p2k, k2q, q2x, xrp)


def direct_measure_displaced(rho: DensityMatrix, cfg: BenchConfig, dz: float, *,
                             noise: bool = False, seed: int | None = None,
                             correct: bool = True) -> PropagatedDistribution:
    """Run the weak-measurement pipeline with the camera displaced by dz.

    The displaced camera's pixels are the momentum states pulled back by the
    chirp V = diag(c) of :func:`fresnel_unitary`.  V is diagonal in x, so it
    commutes with the weak coupling and with every sliver projector, and the
    displaced readout, back-action offset included, is the momentum readout
    of V rho V^dag: :func:`.weaksim.scan` of ``c_m rho[m, j] conj(c_j)``,
    formed in O(n^2), which checks ``noise``, ``seed`` and ``correct``.
    This is the experimental-side oracle for :func:`bayes_propagate`.
    """
    c = fresnel_unitary(rho.grid, dz)
    displaced = DensityMatrix(grid=rho.grid, rho=c[:, None] * rho.rho * c.conj())
    measured = weaksim.scan(displaced, cfg, noise=noise, seed=seed, correct=correct)
    return PropagatedDistribution(grid=rho.grid, dz=dz, e=measured.d, kind="measured")
