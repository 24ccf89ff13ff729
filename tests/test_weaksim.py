import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diracsim import (BenchConfig, ConfigError, NoPhotonsError, backaction_offset,
                      calibrate_estimator, correct_diagonals,
                      default_calibration, density_from_pure, dirac_distribution,
                      estimate_dirac_column, make_grid, mix, pure_from_samples,
                      random_density_matrix, readout_intensities, reconstruct_density,
                      sample_counts, scan)
from diracsim.weaksim import POLARIZATIONS, READOUT_KEYS, derived_seed

from conftest import random_unitary

PHI_BENCH = np.deg2rad(12.92)


def _chirped_state(grid, rng=None):
    x = grid.coords
    return density_from_pure(pure_from_samples(
        grid, np.exp(-x ** 2 / 3.0) * np.exp(1j * (0.7 * x ** 2 + 0.4 * x))))


def _cfg(grid, **kw):
    kw.setdefault("phi", PHI_BENCH)
    kw.setdefault("photon_budget", 1.0)
    return BenchConfig(aperture_halfwidth=grid.span / 2,
                       edge_position=grid.x0 + grid.dx, **kw)


def _explicit_coupling_unitary(n, sliver, phi):
    """Independent construction: full 2n x 2n rotation with index pol*n + m."""
    u = np.eye(2 * n, dtype=complex)
    lo, hi = sliver
    for m in range(lo, hi):
        h, v = m, n + m
        u[h, h] = np.cos(phi)
        u[v, v] = np.cos(phi)
        u[v, h] = np.sin(phi)
        u[h, v] = -np.sin(phi)
    return u


def _oracle_intensities(rho, m, phi, basis):
    """Brute force: project U (rho x |H><H|) U^dag onto analyzer x b_k."""
    n = rho.shape[0]
    u = _explicit_coupling_unitary(n, (m, m + 1), phi)
    init = np.zeros((2 * n, 2 * n), dtype=complex)
    init[:n, :n] = rho
    joint = u @ init @ u.conj().T
    out = {}
    for key in READOUT_KEYS:
        vecs = np.kron(POLARIZATIONS[key][:, None], basis)
        out[key] = np.einsum("ik,ij,jk->k", vecs.conj(), joint, vecs).real
    return out


def _momentum_probs(rho, basis):
    return np.einsum("mk,mn,nk->k", basis.conj(), rho, basis).real


def _assert_pairs_sum_to_budget(counts, budget, tol=1e-6):
    """Nonnegative counts whose linear (D, A) and circular (L, R) pairs each
    hold the whole photon budget at every sliver."""
    assert counts.shape[0] == len(READOUT_KEYS) and np.all(counts >= 0)
    d, a, l, r = counts
    for pair_total in ((d + a).sum(axis=-1), (l + r).sum(axis=-1)):
        assert np.max(np.abs(pair_total - budget)) <= tol * budget


def test_couple_identity_at_zero_angle():
    # no coupling: every sliver's H input splits evenly over every analyzer
    rng = np.random.default_rng(1)
    grid = make_grid(8, 0.5)
    rho = random_density_matrix(grid, rng)
    budget = 1e3
    for basis in (None, random_unitary(8, rng)):
        b = grid.overlap_matrix if basis is None else basis
        q = _momentum_probs(rho.rho, b)
        counts = readout_intensities(rho, 0.0, budget, basis=basis)
        assert counts.shape == (4, 8, 8)
        assert np.max(np.abs(counts / budget - q / 2)) < 1e-14


def test_couple_strong_limit_flips_polarization():
    grid = make_grid(8, 0.5)
    budget = 1e3
    # position eigenstate in the sliver: the whole beam is flipped to V, so
    # every analyzer sees half of the flat momentum distribution
    raw = np.zeros(8)
    raw[3] = 1.0
    counts = readout_intensities(density_from_pure(pure_from_samples(grid, raw)),
                                 np.pi / 2, budget)[:, 3]
    assert np.allclose(counts, budget / 16, atol=1e-14 * budget)
    # general state: the flipped sliver no longer interferes with the H rest
    # of the beam in the linear-pair total
    rho = _chirped_state(grid)
    u = grid.overlap_matrix
    coherent = _momentum_probs(rho.rho, u)
    for m in (2, 3, 5):
        counts = readout_intensities(rho, np.pi / 2, budget)[:, m]
        proj = np.zeros((8, 8))
        proj[m, m] = 1.0
        rest = np.eye(8) - proj
        incoherent = _momentum_probs(rest @ rho.rho @ rest + proj @ rho.rho @ proj, u)
        assert np.max(np.abs(coherent - incoherent)) > 1e-3
        total = (counts[0] + counts[1]) / budget
        assert np.max(np.abs(total - incoherent)) < 1e-12
        oracle = _oracle_intensities(rho.rho, m, np.pi / 2, u)
        for i, key in enumerate(READOUT_KEYS):
            assert np.max(np.abs(counts[i] / budget - oracle[key])) < 1e-12


_ANGLES = st.one_of(st.sampled_from([0.0, np.pi / 2]), st.floats(0.0, np.pi / 2))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(2, 17), rank_frac=st.floats(0.0, 1.0), phi=_ANGLES,
       random_basis=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(n=8, rank_frac=1.0, phi=0.0, random_basis=False, seed=1)
@example(n=8, rank_frac=0.0, phi=np.pi / 2, random_basis=False, seed=2)
@example(n=9, rank_frac=0.5, phi=np.pi / 2, random_basis=True, seed=3)
def test_couple_matches_explicit_unitary(n, rank_frac, phi, random_basis, seed):
    """Every sliver's closed-form counts equal the 2n x 2n joint state after
    the explicit coupling unitary, projected onto analyzer x b_k."""
    rng = np.random.default_rng(seed)
    grid = make_grid(n, 0.5)
    rank = 1 + int(rank_frac * (n - 1))
    rho = random_density_matrix(grid, rng, rank=rank)
    basis = random_unitary(n, rng) if random_basis else grid.overlap_matrix
    budget = 1e3
    counts = readout_intensities(rho, phi, budget, basis=basis if random_basis else None)
    assert counts.shape == (4, n, n)
    for m in range(n):
        oracle = _oracle_intensities(rho.rho, m, phi, basis)
        for i, key in enumerate(READOUT_KEYS):
            assert np.max(np.abs(counts[i, m] / budget - oracle[key])) < 1e-12
    _assert_pairs_sum_to_budget(counts, budget)


def test_couple_rejects_bad_inputs():
    rng = np.random.default_rng(3)
    grid = make_grid(8, 0.5)
    rho = random_density_matrix(grid, rng)
    for bad_phi in (-1e-9, np.pi / 2 + 1e-9, 2.0):
        with pytest.raises(ConfigError):
            readout_intensities(rho, bad_phi, 1e3)
    with pytest.raises(ConfigError):
        readout_intensities(rho, PHI_BENCH, -1.0)


def test_readout_balanced_without_coupling():
    rng = np.random.default_rng(4)
    grid = make_grid(8, 0.5)
    rho = random_density_matrix(grid, rng)
    d, a, l, r = readout_intensities(rho, 0.0, 1e6)[:, 2]
    assert np.max(np.abs(d - a)) < 1e-9
    assert np.max(np.abs(l - r)) < 1e-9


def test_readout_pair_sums_equal_budget():
    rng = np.random.default_rng(5)
    grid = make_grid(16, 0.5)
    rho = random_density_matrix(grid, rng)
    budget = 3.7e8
    for phi in (0.0, PHI_BENCH, np.pi / 2):
        _assert_pairs_sum_to_budget(readout_intensities(rho, phi, budget), budget, tol=1e-9)


def test_readout_two_level_closed_form():
    # position eigenstate inside the sliver: flat momentum distribution with
    # analyzer weights |<j|(cos, sin)>|^2
    grid = make_grid(8, 0.5)
    raw = np.zeros(8)
    raw[5] = 1.0
    rho = density_from_pure(pure_from_samples(grid, raw))
    budget = 1e4
    counts = readout_intensities(rho, PHI_BENCH, budget)[:, 5]
    pol = np.array([np.cos(PHI_BENCH), np.sin(PHI_BENCH)])
    for i, key in enumerate(READOUT_KEYS):
        weight = abs(np.vdot(POLARIZATIONS[key], pol)) ** 2
        assert np.allclose(counts[i], budget * weight / 8.0, atol=1e-9 * budget)


def test_sample_counts_deterministic_and_zero_preserving():
    grid = make_grid(8, 0.5)
    raw = np.zeros(8)
    raw[2] = 1.0
    rho = density_from_pure(pure_from_samples(grid, raw))
    expected = readout_intensities(rho, PHI_BENCH, 1e5)
    a = sample_counts(expected, 99)
    b = sample_counts(expected, 99)
    c = sample_counts(expected, 100)
    assert a.shape == expected.shape and a.dtype == float
    assert np.array_equal(a, b)
    assert a[expected == 0.0].sum() == 0.0
    assert not np.array_equal(a, c)


def test_sample_counts_draws_each_sliver_from_its_own_seed():
    """Sliver m draws D, A, L and R in turn from default_rng(derived_seed(seed, m)),
    so its counts do not depend on the other slivers."""
    grid = make_grid(8, 0.5)
    expected = readout_intensities(_chirped_state(grid), PHI_BENCH, 1e5)
    noisy = sample_counts(expected, 42)
    for m in range(8):
        rng = np.random.default_rng(derived_seed(42, m))
        for i in range(len(READOUT_KEYS)):
            assert np.array_equal(noisy[i, m], rng.poisson(expected[i, m]).astype(float))


def test_sample_counts_concentrates_at_large_budget():
    rng = np.random.default_rng(6)
    grid = make_grid(16, 0.5)
    rho = _chirped_state(grid)
    expected = readout_intensities(rho, PHI_BENCH, 1e12)
    mean, noisy = expected[:, 8], sample_counts(expected, 7)[:, 8]
    big = mean >= 1e8
    rel = np.abs(noisy[big] - mean[big]) / mean[big]
    assert np.max(rel) < 1e-4


def test_calibration_constants():
    cal = calibrate_estimator()
    assert cal.c_re == pytest.approx(0.5, abs=1e-9)
    assert cal.c_im == pytest.approx(0.5, abs=1e-9)
    assert cal.sign_circ == -1
    assert default_calibration() == default_calibration()


def test_estimator_weak_limit_matches_oracle():
    grid = make_grid(16, 0.5)
    rho = _chirped_state(grid)
    truth = dirac_distribution(rho).d
    phi = np.deg2rad(0.1)
    counts = readout_intensities(rho, phi, 1.0)
    for m in (4, 8, 12):
        est = estimate_dirac_column(counts[:, m], phi)
        assert np.max(np.abs(est - truth[m, :])) < 1e-6
    assert np.max(np.abs(estimate_dirac_column(counts, phi) - truth)) < 1e-6


def test_estimator_finite_angle_offset_identity():
    grid = make_grid(16, 0.5)
    rho = _chirped_state(grid)
    truth = dirac_distribution(rho).d
    counts = readout_intensities(rho, PHI_BENCH, 1.0)
    for m in (3, 8, 13):
        est = estimate_dirac_column(counts[:, m], PHI_BENCH)
        # one sliver's column is the same row of the whole-scan estimate, bit for bit
        assert np.array_equal(est, estimate_dirac_column(counts, PHI_BENCH)[m])
        offset = backaction_offset(rho, PHI_BENCH)[m]
        assert np.max(np.abs(est + offset - truth[m, :])) < 1e-10
        # offset row shape: Prob(x) (1 - cos phi)/n in every momentum bin
        expected = rho.rho[m, m].real * (1 - np.cos(PHI_BENCH)) / grid.n
        assert np.allclose(offset, expected, atol=1e-15)


def test_estimator_zero_without_coupling():
    rng = np.random.default_rng(8)
    grid = make_grid(8, 0.5)
    rho = random_density_matrix(grid, rng)
    counts = readout_intensities(rho, 0.0, 1.0)[:, 2]
    # H input, no coupling, read at the nominal angle
    assert np.max(np.abs(estimate_dirac_column(counts, PHI_BENCH))) < 1e-12


def test_estimator_requires_photons():
    grid = make_grid(8, 0.5)
    raw = np.zeros(8)
    raw[2] = 1.0
    rho = density_from_pure(pure_from_samples(grid, raw))
    counts = readout_intensities(rho, PHI_BENCH, 0.0)
    with pytest.raises(NoPhotonsError):
        estimate_dirac_column(counts[:, 2], PHI_BENCH)
    counts = readout_intensities(rho, PHI_BENCH, 1.0)
    counts[:2, 5] = 0.0
    with pytest.raises(NoPhotonsError, match="^sliver 5: "):
        estimate_dirac_column(counts, PHI_BENCH)


def test_backaction_offset_values():
    rng = np.random.default_rng(9)
    grid = make_grid(8, 0.5)
    rho = random_density_matrix(grid, rng)
    assert np.max(np.abs(backaction_offset(rho, 0.0))) == 0.0
    scale = 1.0 - np.cos(PHI_BENCH)
    assert scale == pytest.approx(0.02532, abs=5e-6)
    matrix = backaction_offset(rho, PHI_BENCH)
    u = grid.overlap_matrix
    for m in range(8):
        # projector oracle for the single-site sliver {m}
        proj = np.zeros((8, 8))
        proj[m, m] = 1.0
        prp = proj @ rho.rho @ proj
        expected = scale * np.einsum("mk,mn,nk->k", u.conj(), prp, u).real
        assert np.max(np.abs(matrix[m] - expected)) < 1e-15


def test_scan_corrected_matches_exact_distribution():
    rng = np.random.default_rng(11)
    grid = make_grid(16, 0.5)
    rho = random_density_matrix(grid, rng)
    cfg = _cfg(grid)
    measured = scan(rho, cfg)
    truth = dirac_distribution(rho)
    assert np.max(np.abs(measured.d - truth.d)) < 1e-9
    measured.validate()


def test_scan_is_linear_in_the_state():
    rng = np.random.default_rng(12)
    grid = make_grid(8, 0.5)
    r1 = random_density_matrix(grid, rng)
    r2 = random_density_matrix(grid, rng)
    cfg = _cfg(grid)
    mixed = mix([(r1, 0.3), (r2, 0.7)])
    lhs = scan(mixed, cfg, correct=False).d
    rhs = 0.3 * scan(r1, cfg, correct=False).d + 0.7 * scan(r2, cfg, correct=False).d
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_real_column_gives_balanced_circular_counts():
    # centered real even state: the x = 0 sliver row of d is purely real,
    # so the circular analyzer pair stays balanced
    grid = make_grid(16, 0.5)
    rho = density_from_pure(pure_from_samples(grid, np.exp(-grid.coords ** 2)))
    m0 = grid.n // 2
    truth_row = dirac_distribution(rho).d[m0, :]
    assert np.max(np.abs(truth_row.imag)) < 1e-14
    counts = readout_intensities(rho, PHI_BENCH, 1.0)[:, m0]
    assert np.max(np.abs(counts[2] - counts[3])) < 1e-12


def test_scan_zero_probability_sliver_estimates_zero():
    grid = make_grid(16, 0.5)
    raw = np.zeros(16)
    raw[3] = 1.0
    rho = density_from_pure(pure_from_samples(grid, raw))
    cfg = _cfg(grid)
    measured = scan(rho, cfg, correct=False)
    assert np.max(np.abs(measured.d[10, :])) < 1e-12


def test_noisy_scan_determinism():
    rng = np.random.default_rng(13)
    grid = make_grid(8, 0.5)
    rho = random_density_matrix(grid, rng)
    cfg = _cfg(grid, photon_budget=1e6)
    a = scan(rho, cfg, noise=True, seed=3)
    b = scan(rho, cfg, noise=True, seed=3)
    c = scan(rho, cfg, noise=True, seed=4)
    assert np.array_equal(a.d, b.d)
    assert not np.array_equal(a.d, c.d)
    with pytest.raises(ConfigError):
        scan(rho, cfg, noise=True)
    assert derived_seed(3, 0) != derived_seed(3, 1)


def test_scan_records_round_shape():
    rng = np.random.default_rng(14)
    grid = make_grid(8, 0.5)
    rho = random_density_matrix(grid, rng)
    cfg = _cfg(grid, photon_budget=1e6)
    counts = readout_intensities(rho, cfg.phi, cfg.photon_budget)
    assert counts.shape == (len(READOUT_KEYS), 8, 8)
    _assert_pairs_sum_to_budget(counts, cfg.photon_budget)
    dist = scan(rho, cfg)
    assert dist.d.shape == (8, 8) and not dist.d.flags.writeable
    noisy = scan(rho, cfg, noise=True, seed=5, correct=False)
    expected = estimate_dirac_column(sample_counts(counts, 5), cfg.phi)
    assert np.array_equal(noisy.d, expected)


def test_correct_diagonals_identity_and_factor():
    rng = np.random.default_rng(15)
    grid = make_grid(8, 0.5)
    rho = random_density_matrix(grid, rng)
    same = correct_diagonals(rho, 0.0)
    assert np.max(np.abs(same.rho - rho.rho)) < 1e-15
    assert np.cos(PHI_BENCH) == pytest.approx(0.97469, abs=1e-5)


def test_uncorrected_pipeline_suppresses_only_diagonals():
    rng = np.random.default_rng(16)
    grid = make_grid(16, 0.5)
    rho = random_density_matrix(grid, rng)
    cfg = _cfg(grid)
    measured = scan(rho, cfg, correct=False)
    rec = reconstruct_density(measured)
    off_mask = ~np.eye(16, dtype=bool)
    assert np.max(np.abs(rec.rho[off_mask] - rho.rho[off_mask])) < 1e-10
    ratio = rec.rho.diagonal().real / rho.rho.diagonal().real
    assert np.max(np.abs(ratio - np.cos(cfg.phi))) < 1e-10
    fixed = correct_diagonals(rec, cfg.phi)
    assert np.max(np.abs(fixed.rho - rho.rho)) < 1e-10
    fixed.validate()
