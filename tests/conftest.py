"""Shared helpers for the test suite: independent oracles and circular stats."""

import numpy as np

from diracsim import (BenchConfig, ContractError, DensityMatrix, UnitMap, bench_pure_state,
                      make_grid)


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def projector_trace_oracle(grid, rho):
    """Brute-force Tr[P_k X_m rho] from explicit projector matrices."""
    n = grid.n
    u = grid.overlap_matrix
    out = np.empty((n, n), dtype=complex)
    for m in range(n):
        xm = np.zeros((n, n), dtype=complex)
        xm[m, m] = 1.0
        for k in range(n):
            pk = np.outer(u[:, k], u[:, k].conj())
            out[m, k] = np.trace(pk @ xm @ rho)
    return out


def displaced_trace_oracle(k_basis, rho):
    """Brute-force Tr[pi_k' pi_x rho] in an arbitrary orthonormal k' basis."""
    n = rho.shape[0]
    out = np.empty((n, n), dtype=complex)
    for m in range(n):
        xm = np.zeros((n, n), dtype=complex)
        xm[m, m] = 1.0
        for j in range(n):
            pk = np.outer(k_basis[:, j], k_basis[:, j].conj())
            out[m, j] = np.trace(pk @ xm @ rho)
    return out


def analytic_kernel_term(x, x_ft, kprime, dz, wavelength, focal_length):
    """One unnormalized spherical-wavelet kernel value in closed form.

    Combines the exact path length from the Fourier-plane point x_ft to the
    displaced camera point k', the lens phase x k' / (f lambda), the
    x_ft-dependent cross term, and the oblique-path correction
    alpha = x dz / (lambda sqrt(x^2 + f^2)); the overall normalization is
    left to the caller.
    """
    r = np.sqrt(dz ** 2 + (x_ft - kprime) ** 2)
    alpha = x * dz / (wavelength * np.sqrt(x ** 2 + focal_length ** 2))
    phase = 2.0 * np.pi * (r / wavelength
                           + (x * kprime - x_ft * x) / (focal_length * wavelength)
                           + alpha)
    return complex(np.exp(1j * phase) / r)


def joint4(rho, ix, iq, ik, ip, v1, v2):
    """Single entry of the four-variable joint quasi-probability, one vector at a time."""
    grid = rho.grid
    for idx in (ix, iq, ik, ip):
        if not 0 <= idx < grid.n:
            raise ContractError(f"index {idx} out of range for n={grid.n}")
    u = grid.overlap_matrix
    q = np.asarray(v1, dtype=complex).conj().T[:, iq]
    k = np.asarray(v2, dtype=complex).conj().T @ u[:, ik]
    p = u[:, ip]
    return complex(np.vdot(p, k) * np.vdot(k, q) * np.conj(q[ix]) * (rho.rho @ p)[ix])


def phase_averaged_bench_state(cfg, grid, samples=64):
    """Mixed bench state as an incoherent average over plate phases.

    Averages the pure state over ``samples`` equally spaced plate phases in
    [0, 2 pi); the uniform average of exp(i theta) over a full period
    vanishes exactly, so the result reproduces the block-zeroed construction.
    """
    assert samples >= 2, "phase averaging needs at least 2 samples"
    base = bench_pure_state(cfg, grid)
    beyond = grid.coords > cfg.edge_position
    rho = np.zeros((grid.n, grid.n), dtype=complex)
    for theta in 2.0 * np.pi * np.arange(samples) / samples:
        amp = base.amp.copy()
        amp[beyond] *= np.exp(1j * theta)
        rho += np.outer(amp, amp.conj())
    rho /= samples
    rho.setflags(write=False)
    out = DensityMatrix(grid=grid, rho=rho)
    out.validate()
    return out


def circ_centroid_bin(w):
    """Phasor-mean centroid of a periodic profile, in fractional bins [0, n)."""
    n = len(w)
    ph = np.sum(w * np.exp(2j * np.pi * np.arange(n) / n))
    return (np.angle(ph) * n / (2.0 * np.pi)) % n


def circ_shift_bins(c2, c1, n):
    """Circular difference c2 - c1 wrapped into (-n/2, n/2]."""
    return ((c2 - c1 + n / 2.0) % n) - n / 2.0


def circ_variance_bins(w):
    """Second moment about the circular centroid, in bins^2."""
    n = len(w)
    c = circ_centroid_bin(w)
    rolled = np.roll(w, int(round(n / 2.0 - c)))
    idx = np.arange(n)
    mu = np.sum(rolled * idx) / np.sum(rolled)
    return np.sum(rolled * (idx - mu) ** 2) / np.sum(rolled)


def bench_grid(n=256, mixed=False, **bench_kwargs):
    """Default-bench grid + config pair at a chosen resolution."""
    grid = make_grid(n, 44e-3 / n, 22e-3, UnitMap(780e-9, 1.0, 4.935))
    cfg = BenchConfig(aperture_halfwidth=22e-3, edge_position=25e-3,
                      mixed=mixed, **bench_kwargs)
    return grid, cfg
