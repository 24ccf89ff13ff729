"""Shared helpers for the test suite: independent oracles and circular stats."""

import dataclasses
import hashlib
import io
import os
import shutil
from pathlib import Path

import numpy as np

from diracsim import (BenchConfig, ContractError, DensityMatrix, DiracDistribution, UnitMap,
                      backaction_offset, bench_pure_state, correct_diagonals,
                      estimate_dirac_column, fileio, make_grid, reconstruct_density,
                      sample_counts)
from diracsim.weaksim import derived_seed, sliver_readout, sliver_seeds


# Polarization analyzer states in the {H, V} basis, in READOUT_KEYS order.
_SQ = 1.0 / np.sqrt(2.0)
POLARIZATIONS = {
    "D": np.array([_SQ, _SQ]),
    "A": np.array([_SQ, -_SQ]),
    "L": np.array([_SQ, 1j * _SQ]),
    "R": np.array([_SQ, -1j * _SQ]),
}


def load_counts(path):
    """Independent reader of a counts file: ``(counts, meta)``, counts of shape
    (4, n) in ``READOUT_KEYS`` order and meta values as strings.

    The '# key=value' headers follow the magic line; the body loads with
    ``np.loadtxt``, as any user of the files would load it.
    """
    meta = {}
    with open(path, encoding="utf-8") as fh:
        assert fh.readline() == "# diracsim counts v1\n"
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
    rows = np.loadtxt(path, comments="#", ndmin=2)
    n = int(meta["n"])
    assert rows.shape == (n, 5) and np.array_equal(rows[:, 0], np.arange(n))
    return np.ascontiguousarray(rows[:, 1:].T), meta


# -- binary twins: ``fileio.write_matrix`` leaves one beside each matrix file

TWIN_DIR = ".diracsim-cache"


def twin_name(path):
    """The file name, in ``TWIN_DIR`` beside it, of the twin of the matrix
    file ``path``: its name, the SHA-256 of its bytes, the SHA-256 of the
    complex128 bytes (row-major) of the matrix its text holds, and ``.npy``.
    The matrix is parsed here one line at a time, not through ``fileio``."""
    path = Path(path)
    text = path.read_bytes()
    lines = text.decode().splitlines()
    shape = {key: int(value) for key, _, value in (line[2:].partition("=") for line in lines)
             if key in ("rows", "cols")}
    values = np.zeros((shape["rows"], shape["cols"], 2))
    for line in lines:
        if not line.startswith("#"):
            i, j, re, im = line.split()
            values[int(i), int(j)] = float(re), float(im)
    return (f"{path.name}.{hashlib.sha256(text).hexdigest()}."
            f"{hashlib.sha256(values.tobytes()).hexdigest()}.npy")


def huge_twin():
    """Twin bytes whose ``.npy`` header declares a (200000, 200000) complex128
    array, 596 GiB, followed by 64 bytes of data."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<c16", "fortran_order": False, "shape": (200_000, 200_000)})
    return buf.getvalue() + bytes(64)


def drop_twins(directory):
    """Delete the twins of the matrix files in ``directory``, so that reading
    one of them parses its text."""
    shutil.rmtree(Path(directory, TWIN_DIR))


def count_text_parses(monkeypatch):
    """A list that grows by one each time ``fileio.read_matrix`` parses a
    body as text, not from a twin."""
    calls = []
    parse = fileio._read_matrix_lines
    monkeypatch.setattr(fileio, "_read_matrix_lines",
                        lambda *args: calls.append(args) or parse(*args))
    return calls


# -- byte oracles of the text writers: one line at a time, every number
# through format(x, ".17g"), LF line endings.  Written files must equal them.

def _header_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _text_file(magic, header, body):
    lines = [magic] + [f"# {key}={_header_value(value)}" for key, value in header.items()]
    return ("\n".join(lines + body) + "\n").encode()


def matrix_file_oracle(arr, meta):
    """The bytes of a matrix file: '# rows', '# cols' and ``meta`` headers, then
    'i j re im' for every entry in row-major order."""
    rows, cols = arr.shape
    body = [f"{i} {j} {format(arr[i, j].real, '.17g')} {format(arr[i, j].imag, '.17g')}"
            for i in range(rows) for j in range(cols)]
    return _text_file("# diracsim matrix v1", {"rows": rows, "cols": cols, **meta}, body)


def counts_file_oracle(counts, meta):
    """The bytes of a counts file for (4, n) ``counts``: '# n' and ``meta``
    headers, then 'k N_D N_A N_L N_R' for every momentum bin k."""
    n = counts.shape[1]
    body = [" ".join([str(k)] + [format(float(c), ".17g") for c in counts[:, k]])
            for k in range(n)]
    return _text_file("# diracsim counts v1", {"n": n, **meta}, body)


def figure_csv_oracle(arr, rows, cols, corner, kind):
    """The bytes of one ``figures`` CSV: the ``corner`` label and the column
    coordinates, then each row's coordinate and the ``kind`` table's values."""
    table = {
        "magnitude": np.abs(arr),
        "phase": np.where(np.angle(arr) <= -np.pi, np.pi, np.angle(arr)),
        "real": arr.real,
        "imag": arr.imag,
    }[kind]
    lines = [",".join([corner] + [format(c, ".17g") for c in cols])]
    for i in range(table.shape[0]):
        lines.append(",".join([format(rows[i], ".17g")]
                              + [format(v, ".17g") for v in table[i]]))
    return ("\n".join(lines) + "\n").encode()


def readout_intensities(rho, phi, photon_budget, basis=None):
    """Expected counts of the four analyzers at every single-site sliver, as
    ``counts[analyzer, m, k]`` of shape (4, n, n): the one block of all n
    slivers of ``sliver_readout``, with its checks.

    A dense ``basis``, whose columns are the strong-measurement projection
    states in the position basis, replaces the readout's W, column sums and
    offset by the dense formulas W = conj(B) * (rho B) and
    (1 - cos phi) Prob(x_m) |B[m, k]|^2, with no Dirac transform.
    """
    readout = sliver_readout(rho, phi, photon_budget)
    if basis is not None:
        w = basis.conj() * (rho.rho @ basis)
        off = (1.0 - np.cos(phi)) * rho.rho.diagonal().real[:, None] * np.abs(basis) ** 2
        readout = dataclasses.replace(readout, w=w, col=w.sum(axis=0).real, off=off)
    return readout.intensities(0, rho.grid.n)


def scan_oracle(rho, cfg, *, noise=False, seed=None, correct=True):
    """The measured distribution of ``scan``, composed from the public
    functions on whole arrays: the (4, n, n) expected counts, their draw from
    ``sliver_seeds(seed, n)`` if ``noise``, the estimate and, if ``correct``,
    the back-action offset column."""
    counts = readout_intensities(rho, cfg.phi, cfg.photon_budget)
    if noise:
        counts = sample_counts(counts, sliver_seeds(seed, rho.grid.n))
    est = estimate_dirac_column(counts, cfg.phi)
    return est + backaction_offset(rho, cfg.phi) if correct else est


def measure_oracle(cfg, state, out_dir):
    """What ``measure`` writes for RunConfig ``cfg`` and DensityMatrix
    ``state``, composed from the public functions on whole (4, n, n) arrays
    and written through ``fileio`` into ``out_dir``: every scan's counts at
    once, its per-sliver seeds, the mean of the scans' estimates, the
    offset column and the lab-style corrected reconstruction."""
    n, phi, budget = state.grid.n, cfg.bench.phi, cfg.bench.photon_budget
    expected = readout_intensities(state, phi, budget)
    scan_seeds = [sliver_seeds(derived_seed(cfg.seed, 10_000_000 + rep), n)
                  for rep in range(cfg.scans)] if cfg.noise else [None]
    scans = [expected if seeds is None else sample_counts(expected, seeds)
             for seeds in scan_seeds]
    acc = np.zeros((n, n), dtype=complex)
    for counts in scans:
        acc += estimate_dirac_column(counts, phi)
    raw = acc / len(scans)
    meta = {**fileio.grid_meta(state.grid), "phi": phi, "photon_budget": budget,
            "noise": cfg.noise, "seed": cfg.seed if cfg.noise else "none",
            "scans": len(scans), "corrected": cfg.correct}
    emitted = raw + backaction_offset(state, phi) if cfg.correct else raw
    fileio.write_matrix(os.path.join(out_dir, "dirac_measured.txt"), emitted,
                        {"kind": "dirac", **meta})
    for m in range(n):
        fileio.write_counts(os.path.join(out_dir, "counts", f"sliver_{m:04d}.txt"),
                            scans[0][:, m], {
            "sliver_lo": m, "sliver_hi": m + 1, "phi": phi, "photon_budget": budget,
            "seed": "none" if scan_seeds[0] is None else scan_seeds[0][m]})
    if cfg.correct:
        rho = correct_diagonals(reconstruct_density(DiracDistribution(grid=state.grid, d=raw)),
                                phi).rho
        fileio.write_matrix(os.path.join(out_dir, "density_measured.txt"), rho,
                            {"kind": "density", **meta})


# -- variance oracles of a noisy scan and of its propagation: Poisson counts,
# with each sliver's linear total T held fixed (the delta method)

def estimate_variances(rho, phi, photon_budget):
    """Var(Re d) and Var(Im d), each (n, n), of one noisy scan's estimate:
    (N_D + N_A) / (4 T^2 sin^2 phi) and (N_L + N_R) / (4 T^2 sin^2 phi), the
    expected counts N from ``sliver_readout(...).intensities`` and T the sum
    of N_D + N_A over each sliver's momentum bins."""
    n_d, n_a, n_l, n_r = sliver_readout(rho, phi, photon_budget).intensities(0, rho.grid.n)
    scale = 4.0 * (n_d + n_a).sum(axis=1, keepdims=True) ** 2 * np.sin(phi) ** 2
    return (n_d + n_a) / scale, (n_l + n_r) / scale


def propagated_variance(v, chirp):
    """E|delta e|^2 of a distribution whose entries carry independent errors
    of E|delta d|^2 = ``v``, propagated through the chirp c:
    ``sum_k' |g_m[k - k']|^2 v[m, k']``, g_m the ``ifft`` of the skewed
    conjugate chirp row ``conj(c)[(m + s) mod n]``; |c_m| = 1 drops out."""
    n = len(chirp)
    gain = np.abs(np.fft.ifft(whole_skew(np.tile(chirp.conj(), (n, 1))), axis=1)) ** 2
    idx = np.arange(n)
    return np.einsum("mkj,mj->mk", gain[:, (idx[:, None] - idx) % n], v)


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


def dense_dirac(grid, op):
    """Dirac transform ``conj(U) * (op @ U)`` with the dense overlap matrix U."""
    u = grid.overlap_matrix
    return u.conj() * (op @ u)


def dense_reconstruct(grid, d):
    """Inverse transform ``(d / conj(U)) @ U^dag`` with the dense overlap matrix U."""
    u = grid.overlap_matrix
    return (d / u.conj()) @ u.conj().T


# -- whole-matrix references of the streamed n x n products.  Each applies
# the same arithmetic as its row-block form to the whole matrix at once, with
# the skews taken by index gather, so the two must agree bit for bit.

def whole_skew(a):
    """``g[m, s] = a[m, (m + s) mod n]`` by index gather."""
    idx = np.arange(a.shape[0])
    return a[idx[:, None], (idx[:, None] + idx) % len(idx)]


def whole_unskew(g):
    """``a[m, j] = g[m, (j - m) mod n]`` by index gather."""
    idx = np.arange(g.shape[0])
    return g[idx[:, None], (idx - idx[:, None]) % len(idx)]


def whole_operator_dirac(grid, op):
    """``operator_dirac``: one ifft of the skewed ``op * t``, then the row signs."""
    t = grid._signs
    d = np.fft.ifft(whole_skew(op * t), axis=1)
    d *= t[:, None]
    return d


def whole_reconstruct(grid, d):
    """``reconstruct_density``: the unskewed fft of d times both signs."""
    t = grid._signs
    rho = whole_unskew(np.fft.fft(d, axis=1)) * t[:, None]
    rho *= t
    return rho


def analytic_lens(grid):
    """The analytic kernel's whole n x n lens
    ``col[m, k] = exp(-i pi n/2) t_m t_k conj(F[m, k])``: ``sqrt(n) conj(U) b``
    = t_m conj(F[m, k]) from ``Grid.overlap_matrix`` and its column phases
    ``b_k = exp(i x_f p_k)``, times t_k and exp(-i pi n/2) = (-i)^n taken
    exactly from n mod 4."""
    t = grid._signs
    lens = np.conjugate(grid.overlap_matrix) * np.sqrt(grid.n)
    lens *= np.exp(1j * grid.coords[0] * grid.momenta)
    lens *= t * (1 + 0j, -1j, -1 + 0j, 1j)[grid.n % 4]
    return lens


def whole_propagate(kernel, d):
    """``bayes_propagate`` for a chirp or an analytic kernel: for a chirp
    ``c = kernel.v``, ``c_m ifft_s(fft(d)[m, s] conj(c)[(m + s) mod n])``; for
    the analytic kernel, the length-2n circulant convolution of ``inv * d``
    (``inv`` from :func:`whole_analytic_inverse`) with the wavelet, each row
    m of its spectrum rolled right by n - 2m bins (all rows at once, by an
    index gather), cut to n after the ``ifft``.  The lens's row constant
    (-i)^n t_m cancels against the one left out of ``inv``, so neither is
    applied; :func:`analytic_lens` keeps it for the dense oracle."""
    n = kernel.grid.n
    if kernel.v is None:
        row = kernel.row
        e = np.fft.fft(whole_analytic_inverse(kernel) * d, 2 * n, axis=1)
        e *= np.fft.fft(np.concatenate((row, [0.0], row[:0:-1])))
        m = np.arange(n)[:, None]
        e = np.take_along_axis(e, (np.arange(2 * n) + 2 * m - n) % (2 * n), axis=1)
        e = np.fft.ifft(e, axis=1)[:, :n]
    else:
        e = np.fft.fft(d, axis=1)
        e *= whole_skew(np.tile(kernel.v.conj(), (n, 1)))
        e = np.fft.ifft(e, axis=1)
        e *= kernel.v[:, None]
    return e


def whole_analytic_inverse(kernel):
    """The analytic ``inv`` that ``bayes_propagate`` forms in its output, taken
    over the whole matrix at once: 1 / norm with
    ``norm[m, kp] = fft_j(t_j W[kp, j])[m]`` and W gathered by
    :func:`dense_wavelet`.  This is ``1 / (col @ W)`` times the lens's row
    constant (-i)^n t_m, which :func:`whole_propagate` leaves out of the lens
    in turn.  As there, only the columns kp < ceil(n/2) are transformed; the
    rest are their mirror ``inv[m, n-1-kp] = t_{n-1} exp(2 pi i j/n)
    inv[j, kp]``, j = -m mod n, with the root taken at j reduced into
    (-n/2, n/2]."""
    grid, n = kernel.grid, kernel.grid.n
    half = (n + 1) // 2
    inv = np.empty((n, n), dtype=complex)
    inv[:, :half] = 1.0 / np.fft.fft(dense_wavelet(kernel.row)[:half] * grid._signs, axis=1).T
    j = -np.arange(n) % n
    phase = grid._signs[-1] * np.exp(np.pi * 1j * (2 * np.where(2 * j > n, j - n, j) / n))
    inv[:, half:] = inv[j, n - half - 1::-1] * phase[:, None]
    return inv


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


def dense_wavelet(row):
    """The symmetric Toeplitz matrix W[kp, j] = row[|kp - j|], by index gather."""
    idx = np.arange(len(row))
    return row[np.abs(idx[:, None] - idx[None, :])]


_COND_MEMORY_LIMIT = 2 ** 30  # refuse to materialize cond arrays above 1 GiB


def cond_array(kernel):
    """The full conditional cond[j, m, kp] = col[m, j] row[kp, j] inv[m, kp].

    A unitary kernel's factors are formed here by dense products,
    ``col = conj(K)``, ``row = U^dag K`` and ``inv = 1 / conj(U)`` with
    ``K = V^dag U``, independently of the FFT path of ``bayes_propagate``.
    An analytic kernel's dense wavelet matrix is gathered from its generator,
    ``row[kp, j] = kernel.row[|kp - j|]``, independently of the FFT
    convolution, and its ``inv = 1 / (col @ row)`` is a dense product, not
    the per-row FFT of ``bayes_propagate``.  Refuses grids where the n^3
    array would not fit.
    """
    n = kernel.grid.n
    if 16 * n ** 3 > _COND_MEMORY_LIMIT:
        raise ContractError(
            f"cond array for n={n} needs {16 * n ** 3 / 2 ** 30:.1f} GiB; "
            "use the factored form via bayes_propagate instead"
        )
    if kernel.v is None:
        col, row = analytic_lens(kernel.grid), dense_wavelet(kernel.row)
        inv = 1.0 / (col @ row)
    else:
        u = kernel.grid.overlap_matrix
        v = np.diag(kernel.v) if kernel.v.ndim == 1 else kernel.v
        k = v.conj().T @ u
        col, row, inv = k.conj(), u.conj().T @ k, 1.0 / u.conj()
    return np.einsum("mj,kj,mk->jmk", col, row, inv)


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
