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
``(1 - cos phi) <b_k| P rho P |b_k>`` (P the sliver projector), which is
Prob(x) (1 - cos phi) / n per momentum bin for a single-site sliver.  The
proportionality constants and the circular handedness are pinned once by
calibration against the exact trace formula, because pointer-readout sign
conventions are otherwise ambiguous.

A scan's counts are one float array of shape (4, n, n), indexed by analyzer
(``READOUT_KEYS`` order), sliver and momentum bin.  Every scan of a state
repeats the same weak measurement, so the noise-free table is computed once
(:func:`readout_intensities`) and only the shot noise is redrawn per scan
(:func:`sample_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NoPhotonsError, NumericalIntegrityError
from .lattice import make_grid
from .qstate import BenchConfig, DensityMatrix, pure_from_samples, density_from_pure
from .dirac import DiracDistribution, dirac_distribution

# Polarization analyzer states in the {H, V} basis.
_SQ = 1.0 / np.sqrt(2.0)
POLARIZATIONS = {
    "D": np.array([_SQ, _SQ]),
    "A": np.array([_SQ, -_SQ]),
    "L": np.array([_SQ, 1j * _SQ]),
    "R": np.array([_SQ, -1j * _SQ]),
}
READOUT_KEYS = ("D", "A", "L", "R")


@dataclass(frozen=True)
class EstimatorCalibration:
    """Readout constants pinned once against the trace oracle, then immutable."""

    c_re: float
    c_im: float
    sign_circ: int


def readout_intensities(rho: DensityMatrix, phi: float, photon_budget: float,
                        basis: np.ndarray | None = None) -> np.ndarray:
    """Analytic (noise-free) expected counts of the four analyzers at every
    single-site sliver position, as an array ``counts[analyzer, m, k]`` of
    shape (4, n, n) in ``READOUT_KEYS`` order.

    The coupling at sliver m leaves the joint state in the four blocks
    K_a rho K_b with K_H = 1 - (1 - cos phi) e_m e_m^T and
    K_V = sin(phi) e_m e_m^T, so every readout diagonal <b_k|K_a rho K_b|b_k>
    follows from W = conj(B) * (rho B), its column sums <b_k|rho|b_k> and
    R = rho_mm |B_mk|^2: one matrix product for all (m, k).  phi = pi/2 is
    the strong-measurement limit.  ``basis`` columns are the
    strong-measurement projection states in the position basis; the default
    is the momentum basis (camera in the Fourier-transform plane).
    """
    if not 0.0 <= phi <= 0.5 * np.pi:
        raise ConfigError(f"coupling angle phi {phi} not in [0, pi/2]")
    if photon_budget < 0:
        raise ConfigError("photon budget must be nonnegative")
    basis = rho.grid.overlap_matrix if basis is None else basis
    w = basis.conj() * (rho.rho @ basis)
    r = rho.rho.diagonal().real[:, None] * np.abs(basis) ** 2
    lose, s = 1.0 - np.cos(phi), np.sin(phi)
    diags = {
        (0, 0): w.sum(axis=0) - lose * (w + w.conj()) + lose ** 2 * r,
        (0, 1): s * (w.conj() - lose * r),
        (1, 0): s * (w - lose * r),
        (1, 1): s ** 2 * r,
    }
    counts = np.empty((len(READOUT_KEYS),) + w.shape)
    for i, key in enumerate(READOUT_KEYS):
        j = POLARIZATIONS[key]
        intensity = sum(
            np.conj(j[a]) * j[b] * diags[(a, b)] for a in (0, 1) for b in (0, 1)
        )
        if np.max(np.abs(intensity.imag)) > 1e-12:
            raise NumericalIntegrityError(f"analyzer {key} intensity has imaginary residual")
        counts[i] = np.clip(intensity.real, 0.0, None) * photon_budget
    return counts


def derived_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence((int(master), int(index))).generate_state(1, np.uint64)[0])


def sample_counts(expected: np.ndarray, seed: int) -> np.ndarray:
    """Independent Poisson draw of every bin of a (4, n, n) counts array.

    Sliver m draws from its own generator, seeded by ``derived_seed(seed, m)``,
    so the counts do not depend on the order in which slivers are drawn.
    """
    noisy = np.empty_like(expected)
    for m in range(expected.shape[1]):
        rng = np.random.default_rng(derived_seed(seed, m))
        noisy[:, m, :] = rng.poisson(expected[:, m, :])
    return noisy


def estimate_dirac_column(counts: np.ndarray, phi: float,
                          cal: EstimatorCalibration | None = None) -> np.ndarray:
    """Dirac-distribution estimate from analyzer counts, normalized per sliver
    by its total linear count.

    ``counts`` holds the four analyzers on its first axis: one sliver's
    (4, n) counts give its column, a scan's (4, n, n) counts the whole
    (n, n) estimate.
    """
    cal = default_calibration() if cal is None else cal
    d, a, l, r = counts
    total = (d + a).sum(axis=-1, keepdims=True)
    empty = np.flatnonzero(total <= 0)
    if empty.size:
        where = f"sliver {empty[0]}: " if counts.ndim == 3 else ""
        raise NoPhotonsError(f"{where}no photons in the linear analyzer pair")
    scale = total * np.sin(phi)
    return (cal.c_re * (d - a) - 1j * cal.sign_circ * cal.c_im * (l - r)) / scale


def backaction_offset(rho: DensityMatrix, phi: float,
                      basis: np.ndarray | None = None) -> np.ndarray:
    """Correction field for a per-site scan; row m is the offset of sliver {m}.

    In the momentum readout basis every bin of row m is
    Prob(x_m)(1 - cos phi)/n, the lattice form of the uniform offset.
    """
    basis = rho.grid.overlap_matrix if basis is None else basis
    prob = rho.rho.diagonal().real
    return (1.0 - np.cos(phi)) * prob[:, None] * np.abs(basis) ** 2


def scan(rho: DensityMatrix, cfg: BenchConfig, *,
         noise: bool = False, seed: int | None = None,
         correct: bool = True,
         cal: EstimatorCalibration | None = None,
         basis: np.ndarray | None = None) -> DiracDistribution:
    """Step a single-site sliver across the lattice and assemble the measured
    distribution.

    With noise enabled, each sliver position draws from its own counter
    seeded by (seed, sliver index), so the output does not depend on
    execution order.  With analytic counts and the back-action correction
    applied, the result reproduces the exact distribution to rounding.
    """
    if noise and seed is None:
        raise ConfigError("a seed is required for a noisy scan")
    counts = readout_intensities(rho, cfg.phi, cfg.photon_budget, basis=basis)
    if noise:
        counts = sample_counts(counts, seed)
    est = estimate_dirac_column(counts, cfg.phi, cal)
    if correct:
        est = est + backaction_offset(rho, cfg.phi, basis=basis)
    est.setflags(write=False)
    return DiracDistribution(grid=rho.grid, d=est)


def correct_diagonals(rho_measured: DensityMatrix, phi: float) -> DensityMatrix:
    """Undo the cos(phi) back-action suppression of the density-matrix diagonal."""
    if not 0.0 <= phi < 0.5 * np.pi:
        raise ConfigError(f"coupling angle phi {phi} not in [0, pi/2)")
    rho = rho_measured.rho.copy()
    idx = np.diag_indices_from(rho)
    rho[idx] = rho[idx] / np.cos(phi)
    rho.setflags(write=False)
    return DensityMatrix(grid=rho_measured.grid, rho=rho)


def calibrate_estimator(n: int = 16, phi: float = 0.3) -> EstimatorCalibration:
    """Fix (c_re, c_im, sign_circ) against the trace oracle on a known state.

    Uses a chirped Gaussian whose Dirac columns have structure in both the
    real and imaginary parts, solves the per-part least-squares scale, and
    verifies closure of estimate + offset against the exact distribution.
    """
    grid = make_grid(n, 0.5)
    x = grid.coords
    amp = np.exp(-x ** 2 / 3.0) * np.exp(1j * (0.8 * x ** 2 + 0.6 * x))
    rho = density_from_pure(pure_from_samples(grid, amp))
    truth = dirac_distribution(rho).d
    rows = [n // 4, n // 2, (3 * n) // 4]
    counts = readout_intensities(rho, phi, 1.0)[:, rows, :]
    tgt = (truth[rows] - backaction_offset(rho, phi)[rows]).ravel()
    d, a, l, r = counts
    scale = (d + a).sum(axis=-1, keepdims=True) * np.sin(phi)
    raw_re, raw_im = ((d - a) / scale).ravel(), ((l - r) / scale).ravel()
    c_re = float(np.dot(raw_re, tgt.real) / np.dot(raw_re, raw_re))
    s_im = float(np.dot(raw_im, tgt.imag) / np.dot(raw_im, raw_im))
    cal = EstimatorCalibration(c_re=c_re, c_im=abs(s_im), sign_circ=-1 if s_im > 0 else 1)
    est = estimate_dirac_column(counts, phi, cal).ravel()
    residual = np.max(np.abs(est - tgt))
    if residual > 1e-10:
        raise NumericalIntegrityError(
            f"estimator calibration failed to close (residual {residual:.3e})"
        )
    return cal


@lru_cache(maxsize=1)
def default_calibration() -> EstimatorCalibration:
    return calibrate_estimator()
