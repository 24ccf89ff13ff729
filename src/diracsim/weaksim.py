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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ContractError, NoPhotonsError, NumericalIntegrityError
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


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Per-momentum photon counts of the four analyzers at one sliver position.

    ``seed is None`` marks analytic (noise-free expected) counts.
    """

    sliver: tuple[int, int]
    phi: float
    counts: dict
    photon_budget: float
    seed: int | None = None

    @property
    def analytic(self) -> bool:
        return self.seed is None

    def validate(self, tol: float = 1e-6) -> None:
        for key in READOUT_KEYS:
            if key not in self.counts:
                raise ContractError(f"missing counts for analyzer {key!r}")
            if np.any(self.counts[key] < 0):
                raise ContractError(f"negative counts for analyzer {key!r}")
        if self.analytic and self.photon_budget > 0:
            for pair in (("D", "A"), ("L", "R")):
                total = sum(float(self.counts[k].sum()) for k in pair)
                if abs(total - self.photon_budget) > tol * self.photon_budget:
                    raise ContractError(
                        f"analytic {pair} counts total {total}, expected {self.photon_budget}"
                    )


@dataclass(frozen=True)
class EstimatorCalibration:
    """Readout constants pinned once against the trace oracle, then immutable."""

    c_re: float
    c_im: float
    sign_circ: int


def readout_intensities(rho: DensityMatrix, phi: float, photon_budget: float,
                        basis: np.ndarray | None = None) -> list[MeasurementRecord]:
    """Analytic (noise-free) expected counts of the four analyzers, one
    record per single-site sliver position.

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
    counts = {}
    for key in READOUT_KEYS:
        j = POLARIZATIONS[key]
        intensity = sum(
            np.conj(j[a]) * j[b] * diags[(a, b)] for a in (0, 1) for b in (0, 1)
        )
        if np.max(np.abs(intensity.imag)) > 1e-12:
            raise NumericalIntegrityError(f"analyzer {key} intensity has imaginary residual")
        counts[key] = np.clip(intensity.real, 0.0, None) * photon_budget
    return [
        MeasurementRecord(sliver=(m, m + 1), phi=float(phi),
                          counts={key: counts[key][m] for key in READOUT_KEYS},
                          photon_budget=photon_budget, seed=None)
        for m in range(rho.grid.n)
    ]


def derived_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence((int(master), int(index))).generate_state(1, np.uint64)[0])


def sample_counts(record: MeasurementRecord, seed: int) -> MeasurementRecord:
    """Independent Poisson draw of every count bin; deterministic in the seed."""
    if not record.analytic:
        raise ContractError("sample_counts expects an analytic record")
    rng = np.random.default_rng(int(seed))
    noisy = {key: rng.poisson(record.counts[key]).astype(float) for key in READOUT_KEYS}
    return replace(record, counts=noisy, seed=int(seed))


def estimate_dirac_column(record: MeasurementRecord,
                          cal: EstimatorCalibration | None = None) -> np.ndarray:
    """Dirac-distribution column estimate, normalized by the total linear count.

    Targets the joint quasi-probability.  The per-momentum-normalized variant
    is :func:`estimate_conditional_column`.
    """
    cal = default_calibration() if cal is None else cal
    d, a, l, r = (record.counts[k] for k in READOUT_KEYS)
    total = float((d + a).sum())
    if total <= 0:
        raise NoPhotonsError("record contains no photons in the linear analyzer pair")
    scale = total * np.sin(record.phi)
    return (cal.c_re * (d - a) - 1j * cal.sign_circ * cal.c_im * (l - r)) / scale


def estimate_conditional_column(record: MeasurementRecord,
                                cal: EstimatorCalibration | None = None) -> np.ndarray:
    """Per-momentum-normalized variant: estimates the conditional P(x|p) column
    in the weak limit.  Bins whose analyzer pair saw no photons carry no
    information and are returned as 0.
    """
    cal = default_calibration() if cal is None else cal
    d, a, l, r = (record.counts[k] for k in READOUT_KEYS)
    lin_tot = d + a
    circ_tot = l + r
    with np.errstate(divide="ignore", invalid="ignore"):
        re_part = np.where(lin_tot > 0, (d - a) / np.where(lin_tot > 0, lin_tot, 1.0), 0.0)
        im_part = np.where(circ_tot > 0, (l - r) / np.where(circ_tot > 0, circ_tot, 1.0), 0.0)
    return (cal.c_re * re_part - 1j * cal.sign_circ * cal.c_im * im_part) / np.sin(record.phi)


def backaction_offset(rho: DensityMatrix, phi: float,
                      basis: np.ndarray | None = None) -> np.ndarray:
    """Correction field for a per-site scan; row m is the offset of sliver {m}.

    In the momentum readout basis every bin of row m is
    Prob(x_m)(1 - cos phi)/n, the lattice form of the uniform offset.
    """
    basis = rho.grid.overlap_matrix if basis is None else basis
    prob = rho.rho.diagonal().real
    return (1.0 - np.cos(phi)) * prob[:, None] * np.abs(basis) ** 2


def scan_with_records(rho: DensityMatrix, cfg: BenchConfig, *,
                      noise: bool = False, seed: int | None = None,
                      correct: bool = True,
                      cal: EstimatorCalibration | None = None,
                      basis: np.ndarray | None = None):
    """Step a single-site sliver across the lattice and assemble the measured
    distribution; returns ``(DiracDistribution, [MeasurementRecord, ...])``.

    With noise enabled, each sliver position draws from its own counter
    seeded by (seed, sliver index), so the output does not depend on
    execution order.  With analytic counts and the back-action correction
    applied, the result reproduces the exact distribution to rounding.
    """
    if noise and seed is None:
        raise ConfigError("a seed is required for a noisy scan")
    cal = default_calibration() if cal is None else cal
    n = rho.grid.n
    est = np.empty((n, n), dtype=complex)
    records = readout_intensities(rho, cfg.phi, cfg.photon_budget, basis=basis)
    if noise:
        records = [sample_counts(rec, derived_seed(seed, m)) for m, rec in enumerate(records)]
    for m, record in enumerate(records):
        try:
            est[m, :] = estimate_dirac_column(record, cal)
        except NoPhotonsError as exc:
            raise NoPhotonsError(f"sliver {m}: {exc}") from exc
    if correct:
        est = est + backaction_offset(rho, cfg.phi, basis=basis)
    est.setflags(write=False)
    return DiracDistribution(grid=rho.grid, d=est), records


def scan(rho: DensityMatrix, cfg: BenchConfig, **kwargs) -> DiracDistribution:
    """Measured Dirac distribution; see :func:`scan_with_records`."""
    return scan_with_records(rho, cfg, **kwargs)[0]


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
    records = readout_intensities(rho, phi, 1.0)
    offset = backaction_offset(rho, phi)
    raw_re, raw_im, tgt = [], [], []
    for m in (n // 4, n // 2, (3 * n) // 4):
        d, a, l, r = (records[m].counts[k] for k in READOUT_KEYS)
        scale = float((d + a).sum()) * np.sin(phi)
        raw_re.append((d - a) / scale)
        raw_im.append((l - r) / scale)
        tgt.append(truth[m, :] - offset[m])
    raw_re = np.concatenate(raw_re)
    raw_im = np.concatenate(raw_im)
    tgt = np.concatenate(tgt)
    c_re = float(np.dot(raw_re, tgt.real) / np.dot(raw_re, raw_re))
    s_im = float(np.dot(raw_im, tgt.imag) / np.dot(raw_im, raw_im))
    cal = EstimatorCalibration(c_re=c_re, c_im=abs(s_im), sign_circ=-1 if s_im > 0 else 1)
    est = cal.c_re * raw_re - 1j * cal.sign_circ * cal.c_im * raw_im
    residual = np.max(np.abs(est - tgt))
    if residual > 1e-10:
        raise NumericalIntegrityError(
            f"estimator calibration failed to close (residual {residual:.3e})"
        )
    return cal


@lru_cache(maxsize=1)
def default_calibration() -> EstimatorCalibration:
    return calibrate_estimator()
