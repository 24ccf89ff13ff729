"""Simulation of the direct weak-measurement of the Dirac distribution.

The position projector onto a narrow sliver of the beam is measured weakly
by rotating the photon polarization there from H by a small angle phi; the
momentum projection is read out on a camera in the Fourier-transform plane
through four polarization analyzers (linear +-45 degrees and the two
circular handednesses).  Count differences in the two analyzer pairs carry
the real and imaginary parts of the Dirac distribution:

    est[k] = [c_re (N_D - N_A)[k] - i sign c_im (N_L - N_R)[k]] / (T sin phi)

with T the total count of the linear pair.  The coupling is implemented
exactly (no small-phi expansion); at finite phi the analytic estimate equals
the true column minus the back-action offset
``O = (1 - cos phi) <p_k| P rho P |p_k>`` (P the sliver projector), which is
Prob(x) (1 - cos phi) / n per momentum bin for a single-site sliver, as
every |<x_m|p_k>|^2 is 1/n.  With W[m, k] = conj(U[m, k]) (rho U)[m, k], the
Dirac distribution itself, the expected intensities are
N_D, N_A = base +- sin(phi) (Re W - O) and N_L, N_R = base +- sin(phi) Im W,
base = <p_k|rho|p_k> / 2 - (1 - cos phi) Re W + O.  These formulas fix
the estimator constants in closed form, c_re = c_im = 1/2 and
sign_circ = -1, which :func:`estimate_dirac_column` applies directly, so no
constant is fitted.  :func:`calibrate_estimator` checks their closure
against the exact trace formula, once per process through
:func:`default_calibration`, at the start of :func:`mean_estimate`.  W is
taken from :func:`.operator_dirac` in the position-difference domain (see
:mod:`.dirac`), with no n x n U and no n^3 product.  A camera displaced past
the Fourier-transform plane needs no other readout: its pixels are the
momentum states pulled back by a position-diagonal chirp, which commutes
with the coupling, so it reads out V rho V^dag in the momentum basis (see
:func:`.bayesprop.direct_measure_displaced`).

Counts are float arrays ``counts[analyzer, m, k]`` of shape (4, b, n) for a
block of b slivers, indexed by analyzer (``READOUT_KEYS`` order), sliver and
momentum bin.  Every scan of a state repeats the same weak measurement, so
W, its column sums and the offset are computed once (:func:`sliver_readout`).
:func:`mean_estimate`, the one measurement recipe that :func:`scan` and the
``measure`` command call, forms the noise-free counts of one of the grid's
row blocks of slivers at a time (:meth:`.Grid.row_blocks`, about
``lattice.BLOCK`` numbers each; 64 slivers at n = 256), redraws only the
shot noise per scan, each sliver from its own seed, averages the scans'
estimate rows as the blocks come and hands the first scan's counts to a
sink.  Each estimate row depends on its own sliver alone, so the result is
the whole-array one to the last bit.

The shot noise of a run hangs on one seed tree (:func:`scan_seeds`): scan k
of a noisy run with seed s draws sliver m from
``derived_seed(derived_seed(s, 10_000_000 + k), m)``, so a library caller
reproduces a ``measure`` run from its seed alone; :func:`scan` draws its one
scan from ``sliver_seeds(seed, n)``, sliver m from ``derived_seed(seed, m)``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ContractError, NoPhotonsError, NumericalIntegrityError
from .lattice import Grid, _as_array, _as_float, _is_bool, _is_int, make_grid
from .qstate import BenchConfig, DensityMatrix, _check_budget, pure_from_samples, density_from_pure
from .dirac import DiracDistribution, dirac_distribution, operator_dirac

READOUT_KEYS = ("D", "A", "L", "R")


@dataclass(frozen=True)
class EstimatorCalibration:
    """Constants of the estimator: the scales of the linear and circular count
    differences and the circular handedness.  The readout fixes them at
    (1/2, 1/2, -1), which :func:`estimate_dirac_column` applies directly;
    :func:`calibrate_estimator` returns this record of them once their
    closure is checked."""

    c_re: float
    c_im: float
    sign_circ: int


@dataclass(frozen=True, eq=False)
class SliverReadout:
    """The noise-free readout of a per-site scan on ``grid``, in the form any
    block of slivers is formed from: W, the Dirac distribution, its real
    column sums ``col`` (Prob(p_k)) and the (n, 1) back-action offset column
    ``off``.  Built by :func:`sliver_readout`, which checks it."""

    grid: Grid
    w: np.ndarray
    col: np.ndarray
    off: np.ndarray
    phi: float
    photon_budget: float

    def intensities(self, lo: int, hi: int) -> np.ndarray:
        """Expected counts of slivers lo..hi-1, as ``counts[analyzer, m - lo, k]``
        of shape (4, hi - lo, n) in ``READOUT_KEYS`` order, clipped at zero.

        N_D, N_A = base +- sin(phi) (Re W - O), N_L, N_R = base +- sin(phi) Im W
        with base = col / 2 - (1 - cos phi) Re W + O, as (1 - cos phi)^2 +
        sin^2 phi = 2 (1 - cos phi).  Each sliver's counts are the same for
        any block that holds it.
        """
        w, off = self.w[lo:hi], self.off[lo:hi]
        lose, s = 1.0 - np.cos(self.phi), np.sin(self.phi)
        base = 0.5 * self.col - lose * w.real + off
        linear, circular = s * (w.real - off), s * w.imag
        counts = np.stack((base + linear, base - linear, base + circular, base - circular))
        np.clip(counts, 0.0, None, out=counts)
        counts *= self.photon_budget
        return counts


def sliver_readout(rho: DensityMatrix, phi: float, photon_budget: float) -> SliverReadout:
    """The analytic readout of a per-site scan, from which
    :meth:`SliverReadout.intensities` forms the expected counts of any
    block of slivers.

    W is the Dirac distribution (:func:`.operator_dirac`) and O the column
    :func:`backaction_offset`, so no matrix product is taken.  phi and the
    photon budget are read as ``float`` reads them and stored as floats; phi
    outside [0, pi/2] (pi/2 is the strong-measurement limit) and a photon
    budget that is negative or not finite, or either one not a number, are
    ConfigErrors.  Every intensity's imaginary part is Im(col) / 2, checked
    to vanish.
    """
    off = backaction_offset(rho, phi)
    budget = _check_budget(photon_budget)
    w = operator_dirac(rho.grid, rho.rho).d
    col = w.sum(axis=0)
    if 0.5 * np.max(np.abs(col.imag)) > 1e-12:
        raise NumericalIntegrityError("analyzer intensities have imaginary residual")
    return SliverReadout(grid=rho.grid, w=w, col=col.real, off=off, phi=_as_float(phi),
                         photon_budget=budget)


# numpy's Generator.poisson refuses means above this (its POISSON_LAM_MAX)
_POISSON_MAX_MEAN = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


def derived_seed(master: int, index: int) -> int:
    """The seed numbered ``index`` derived from ``master``.

    A ``master`` or ``index`` that is not a nonnegative integer, a bool
    included, is a ConfigError.
    """
    _check_seed("seed", master)
    _check_seed("seed index", index)
    return int(np.random.SeedSequence((int(master), int(index))).generate_state(1, np.uint64)[0])


def _check_seed(name: str, value) -> None:
    """Refuse a seed that is not a nonnegative integer, a bool included
    (ConfigError)."""
    if not _is_int(value) or value < 0:
        raise ConfigError(f"{name} must be a nonnegative integer, got {value!r}")


def sliver_seeds(seed: int, n: int) -> list[int]:
    """The seed of each of n slivers' shot noise, ``derived_seed(seed, m)``."""
    return [derived_seed(seed, m) for m in range(n)]


def scan_seeds(seed: int, scans: int, n: int) -> list[list[int]]:
    """The per-sliver seeds of each of ``scans`` noisy scans of n slivers, as
    the ``measure`` command draws them: scan k's are
    ``sliver_seeds(derived_seed(seed, 10_000_000 + k), n)``."""
    return [sliver_seeds(derived_seed(seed, 10_000_000 + k), n) for k in range(scans)]


def _check_means(low: float, peak: float) -> None:
    """Refuse expected counts whose minimum ``low`` is negative or NaN
    (ContractError) or whose maximum ``peak`` is beyond numpy's Poisson
    limit (ConfigError)."""
    if not low >= 0.0:  # also True for NaN
        raise ContractError(f"expected counts must be nonnegative and not NaN, got {low}")
    if peak > _POISSON_MAX_MEAN:
        raise ConfigError(f"photon_budget too large: a mean count of {peak:.3g} exceeds "
                          f"the Poisson sampler's limit {_POISSON_MAX_MEAN:.3g}")


def sample_counts(expected: np.ndarray, seeds: list[int]) -> np.ndarray:
    """Independent Poisson draw of every bin of a (4, b, n) counts array of
    b slivers, such as a scan's (4, n, n) or one block of it.

    Sliver m draws from its own generator, seeded by ``seeds[m]`` (see
    :func:`sliver_seeds`), so the counts do not depend on the order in which
    slivers are drawn.  A mean beyond numpy's Poisson limit, or a seed that
    is not a nonnegative integer (a bool included), is a ConfigError;
    ``seeds`` that are neither a sequence (a list or tuple) nor a 1-d array,
    checked first, means that are not an array of integers or floats, or of
    another shape, a negative or NaN mean, or a seed list whose length is
    not the number of slivers, is a ContractError.
    """
    if not (isinstance(seeds, Sequence) or isinstance(seeds, np.ndarray) and seeds.ndim == 1):
        raise ContractError(f"sliver seeds must be a sequence, got {type(seeds).__name__}")
    expected = _as_array(expected, "expected counts", kinds="iuf")
    if expected.ndim != 3 or expected.shape[0] != len(READOUT_KEYS):
        raise ContractError(f"expected counts of shape {expected.shape}: expected (4, b, n)")
    _check_means(expected.min(initial=0.0), expected.max(initial=0.0))
    if len(seeds) != expected.shape[1]:
        raise ContractError(f"{len(seeds)} sliver seeds given for {expected.shape[1]} slivers")
    noisy = np.empty_like(expected)
    for m, seed in enumerate(seeds):
        _check_seed("seed", seed)
        noisy[:, m, :] = np.random.default_rng(seed).poisson(expected[:, m, :])
    return noisy


def estimate_dirac_column(counts: np.ndarray, phi: float, *,
                          first_sliver: int = 0) -> np.ndarray:
    """Dirac-distribution estimate from analyzer counts, normalized per sliver
    by its total linear count.

    ``counts`` holds the four analyzers on its first axis: one sliver's
    (4, n) counts give its column, the (4, b, n) counts of b slivers their
    (b, n) rows, a scan's (4, n, n) the whole estimate.  Integer counts are
    taken as floats; counts that are not an array of integers or floats
    (bool, complex and string arrays included), or of any other shape, are
    a ContractError, and so is a ``first_sliver`` that is not an integer.
    ``phi``, read as ``float`` reads it, must lie in (0, pi/2]: it divides
    the estimate through sin(phi).  A NaN or infinite count is a
    ContractError, a sliver without linear counts a NoPhotonsError, and a
    row whose estimate is not finite (T sin(phi) underflows for phi near
    1e-320, say) a NumericalIntegrityError, as is a sliver whose total
    linear count overflows, formed with no warning printed; each names the
    first such sliver, counting the first row of ``counts`` as sliver
    ``first_sliver``.  The constants are the closed-form
    c_re = c_im = 1/2 and sign_circ = -1 (module docstring), which give
    W - O for noise-free counts; :func:`mean_estimate` checks their closure
    once per process.
    """
    counts = _as_array(counts, "analyzer counts", kinds="iuf")
    if not 0.0 < (angle := _as_float(phi)) <= 0.5 * np.pi:
        raise ConfigError(f"coupling angle phi {phi} not in (0, pi/2]")
    if not _is_int(first_sliver):
        raise ContractError(f"first_sliver must be an integer, got {first_sliver!r}")
    if counts.ndim not in (2, 3) or counts.shape[0] != len(READOUT_KEYS):
        raise ContractError(f"analyzer counts of shape {counts.shape}: "
                            "expected (4, n) or (4, b, n)")

    def where(bad) -> str:
        """``"sliver m: "``, m the first row flagged in ``bad``, for a block of
        slivers; m is summed in Python ints, which do not overflow."""
        return "" if counts.ndim == 2 else f"sliver {int(first_sliver) + int(np.argmax(bad))}: "

    finite = np.isfinite(counts).all(axis=(0, -1))
    if not finite.all():
        raise ContractError(f"{where(~finite)}analyzer counts are not finite")
    d, a, l, r = counts.astype(float, copy=False)  # integer counts would wrap in d - a
    with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
        total = (d + a).sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise NoPhotonsError(f"{where(total <= 0)}no photons in the linear analyzer pair")
    finite = np.isfinite(total).all(axis=-1)
    if not finite.all():
        raise NumericalIntegrityError(f"{where(~finite)}linear total of the counts is not finite")
    with np.errstate(all="ignore"):  # a row that is not finite is refused below
        est = (0.5 * (d - a) + 0.5j * (l - r)) / (total * np.sin(angle))
    finite = np.isfinite(est).all(axis=-1)
    if not finite.all():
        raise NumericalIntegrityError(f"{where(~finite)}estimate is not finite at phi {phi}")
    return est


def backaction_offset(rho: DensityMatrix, phi: float) -> np.ndarray:
    """Correction for a per-site scan, the (n, 1) column whose row m is the
    offset of sliver {m} in every momentum bin: (1 - cos phi) Prob(x_m)
    |<x_m|p_k>|^2 = Prob(x_m)(1 - cos phi)/n, the lattice form of the
    uniform offset, formed without the overlap matrix.  It broadcasts over
    the momentum bins of an (n, n) estimate.  phi is read as ``float`` reads
    it; one outside [0, pi/2], NaN or not a number included, is a
    ConfigError.
    """
    if not 0.0 <= (angle := _as_float(phi)) <= 0.5 * np.pi:
        raise ConfigError(f"coupling angle phi {phi} not in [0, pi/2]")
    return (1.0 - np.cos(angle)) * rho.rho.diagonal().real[:, None] / rho.grid.n


def mean_estimate(readout: SliverReadout, scan_seeds: list[list[int] | None], on_counts=None):
    """The measurement of ``readout`` over the scans that ``scan_seeds``
    lists: the scans' mean uncorrected estimate and the (n, 1) back-action
    offset column, whose sum is the corrected distribution.
    ``scan_seeds[rep]`` lists scan rep's per-sliver seeds, or is None for a
    noise-free scan, whose counts are the expected ones.

    The estimator's closure check (:func:`default_calibration`) runs first,
    once per process.  If any scan is noisy, every sliver's means then pass
    :func:`sample_counts`' checks before the first draw, a block at a time
    with only its extremes kept.  The scans then run one row block of
    slivers at a time (:meth:`.Grid.row_blocks`): the block's expected
    counts once, then per scan its draw and its (b, n) estimate rows, added
    into the mean.  Each block of the first scan's counts is handed to
    ``on_counts(lo, counts)`` once its rows are estimated, if a sink is
    given, so no more than one block of counts is held.
    """
    est = np.zeros(readout.w.shape, dtype=complex)
    default_calibration()
    blocks = readout.grid.row_blocks()
    if any(seeds is not None for seeds in scan_seeds):
        means = (readout.intensities(lo, hi) for lo, hi in blocks)
        lows, peaks = zip(*((np.min(m), np.max(m)) for m in means))
        _check_means(np.min(lows), np.max(peaks))
    for lo, hi in blocks:
        expected = readout.intensities(lo, hi)
        for rep, seeds in enumerate(scan_seeds):
            counts = expected if seeds is None else sample_counts(expected, seeds[lo:hi])
            est[lo:hi] += estimate_dirac_column(counts, readout.phi, first_sliver=lo)
            if rep == 0 and on_counts is not None:
                on_counts(lo, counts)
    return np.divide(est, len(scan_seeds), out=est), readout.off


def scan(rho: DensityMatrix, cfg: BenchConfig, *,
         noise: bool = False, seed: int | None = None,
         correct: bool = True) -> DiracDistribution:
    """Step a single-site sliver across the lattice and assemble the measured
    distribution: one scan of :func:`mean_estimate`.

    With noise enabled, sliver m draws from ``sliver_seeds(seed, n)[m]``, so
    the output does not depend on execution order.  With analytic counts and
    the back-action correction applied, the result reproduces the exact
    distribution to rounding.  A ``noise`` or ``correct`` that is not a
    Python or numpy bool is a ConfigError.
    """
    for name, flag in (("noise", noise), ("correct", correct)):
        if not _is_bool(flag):
            raise ConfigError(f"{name} must be a bool, got {flag!r}")
    if noise and seed is None:
        raise ConfigError("a seed is required for a noisy scan")
    readout = sliver_readout(rho, cfg.phi, cfg.photon_budget)
    est, off = mean_estimate(readout, [sliver_seeds(seed, rho.grid.n) if noise else None])
    if correct:
        est += off
    est.setflags(write=False)
    return DiracDistribution(grid=rho.grid, d=est)


def correct_diagonals(rho_measured: DensityMatrix, phi: float) -> DensityMatrix:
    """Undo the cos(phi) back-action suppression of the density-matrix diagonal.

    phi is read as ``float`` reads it; one outside [0, pi/2), NaN or not a
    number included, is a ConfigError.
    """
    if not 0.0 <= (angle := _as_float(phi)) < 0.5 * np.pi:
        raise ConfigError(f"coupling angle phi {phi} not in [0, pi/2)")
    rho = rho_measured.rho.copy()
    idx = np.diag_indices_from(rho)
    rho[idx] = rho[idx] / np.cos(angle)
    rho.setflags(write=False)
    return DensityMatrix(grid=rho_measured.grid, rho=rho)


def calibrate_estimator() -> EstimatorCalibration:
    """The estimator constants c_re = c_im = 1/2, sign_circ = -1, after a
    closure check of :func:`estimate_dirac_column` against the trace oracle.

    Per unit photon budget the readout gives N_D - N_A = 2 sin(phi) (Re W - O)
    and N_L - N_R = 2 sin(phi) Im W, and the linear pair sums to 1 per sliver,
    so T = 1 and [(N_D - N_A) + i (N_L - N_R)] / (2 T sin phi) = W - O.
    Nothing is fitted.  The check reads out a chirped Gaussian on 16 sites at
    phi = 0.3, whose Dirac columns have structure in both the real and the
    imaginary parts, and requires estimate + offset to match
    :func:`dirac_distribution` within 1e-10; a readout with a swapped
    analyzer pair fails it with NumericalIntegrityError.
    """
    n, phi = 16, 0.3
    grid = make_grid(n, 0.5)
    x = grid.coords
    amp = np.exp(-x ** 2 / 3.0) * np.exp(1j * (0.8 * x ** 2 + 0.6 * x))
    rho = density_from_pure(pure_from_samples(grid, amp))
    truth = dirac_distribution(rho).d
    rows = [n // 4, n // 2, (3 * n) // 4]
    counts = sliver_readout(rho, phi, 1.0).intensities(0, n)[:, rows, :]
    tgt = truth[rows] - backaction_offset(rho, phi)[rows]
    residual = np.max(np.abs(estimate_dirac_column(counts, phi) - tgt))
    if not residual <= 1e-10:  # also catches a NaN readout
        raise NumericalIntegrityError(
            f"estimator calibration failed to close (residual {residual:.3e})"
        )
    return EstimatorCalibration(c_re=0.5, c_im=0.5, sign_circ=-1)


@lru_cache(maxsize=1)
def default_calibration() -> EstimatorCalibration:
    """:func:`calibrate_estimator`, run once per process."""
    return calibrate_estimator()
