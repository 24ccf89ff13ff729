import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diracsim import (BenchConfig, ConfigError, ContractError, DensityMatrix, EstimatorCalibration,
                      NoPhotonsError, NumericalIntegrityError, backaction_offset,
                      build_kernel_unitary, calibrate_estimator, correct_diagonals,
                      default_calibration, density_from_pure, dirac_distribution,
                      direct_measure_displaced, estimate_dirac_column, fresnel_unitary,
                      make_grid, mix, pure_from_samples, random_density_matrix,
                      reconstruct_density, sample_counts, scan)
from diracsim import weaksim
from diracsim.weaksim import READOUT_KEYS, derived_seed, sliver_readout, sliver_seeds

from conftest import POLARIZATIONS, bench_grid, readout_intensities, scan_oracle

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


def _displaced_state(rho, dz):
    """V rho V^dag for the chirp V = diag(c) of a camera displaced by dz: the
    state whose momentum readout is the displaced camera's readout of rho."""
    c = fresnel_unitary(rho.grid, dz)
    return DensityMatrix(grid=rho.grid, rho=c[:, None] * rho.rho * c.conj())


def _pixel_basis(grid, dz):
    """The displaced camera's pixel states V^dag |p_k>, as dense columns."""
    return build_kernel_unitary(grid, fresnel_unitary(grid, dz), dz).k_basis


# camera displacements; dz = 0 is the Fourier-transform plane itself
_DISPLACEMENTS = st.one_of(st.just(0.0), st.floats(0.0, 0.4))


def _assert_pairs_sum_to_budget(counts, budget, tol=1e-6):
    """Nonnegative counts whose linear (D, A) and circular (L, R) pairs each
    hold the whole photon budget at every sliver."""
    assert counts.shape[0] == len(READOUT_KEYS) and np.all(counts >= 0)
    d, a, l, r = counts
    for pair_total in ((d + a).sum(axis=-1), (l + r).sum(axis=-1)):
        assert np.max(np.abs(pair_total - budget)) <= tol * budget


@settings(derandomize=True, max_examples=10, deadline=None)
@given(dz=_DISPLACEMENTS)
def test_couple_identity_at_zero_angle(dz):
    # no coupling: every sliver's H input splits evenly over every analyzer,
    # on the pixels of a camera displaced by dz
    rng = np.random.default_rng(1)
    grid, _ = bench_grid(8)
    rho = random_density_matrix(grid, rng)
    budget = 1e3
    q = _momentum_probs(rho.rho, _pixel_basis(grid, dz))
    counts = sliver_readout(_displaced_state(rho, dz), 0.0, budget).intensities(0, 8)
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
       dz=_DISPLACEMENTS, seed=st.integers(0, 2 ** 32 - 1))
@example(n=8, rank_frac=1.0, phi=0.0, dz=0.0, seed=1)
@example(n=8, rank_frac=0.0, phi=np.pi / 2, dz=0.0, seed=2)
@example(n=9, rank_frac=0.5, phi=np.pi / 2, dz=0.084, seed=3)
def test_couple_matches_explicit_unitary(n, rank_frac, phi, dz, seed):
    """Every sliver's closed-form counts equal the 2n x 2n joint state after
    the explicit coupling unitary, projected onto analyzer x b_k, with b_k
    the pixels of a camera displaced by dz (the momentum states at dz = 0),
    read out as the momentum scan of V rho V^dag."""
    rng = np.random.default_rng(seed)
    grid, _ = bench_grid(n)
    rank = 1 + int(rank_frac * (n - 1))
    rho = random_density_matrix(grid, rng, rank=rank)
    basis = _pixel_basis(grid, dz)
    budget = 1e3
    counts = sliver_readout(_displaced_state(rho, dz), phi, budget).intensities(0, n)
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
    for bad_budget in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match=r"^photon_budget .* must be finite and nonnegative$"):
            readout_intensities(rho, PHI_BENCH, bad_budget)


def test_readout_rejects_imaginary_residual():
    # an unvalidated non-Hermitian state gives the momentum probabilities
    # <b_k|rho|b_k> an imaginary part, which every analyzer would inherit
    grid = make_grid(8, 0.5)
    rho = np.eye(8, dtype=complex) / 8
    rho[0, 1] = 1e-13
    assert np.all(readout_intensities(DensityMatrix(grid=grid, rho=rho), PHI_BENCH, 1.0) >= 0)
    rho[0, 1] = 1e-6
    with pytest.raises(NumericalIntegrityError, match="imaginary residual"):
        readout_intensities(DensityMatrix(grid=grid, rho=rho), PHI_BENCH, 1.0)


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
    a = sample_counts(expected, sliver_seeds(99, 8))
    b = sample_counts(expected, sliver_seeds(99, 8))
    c = sample_counts(expected, sliver_seeds(100, 8))
    assert a.shape == expected.shape and a.dtype == float
    assert np.array_equal(a, b)
    assert a[expected == 0.0].sum() == 0.0
    assert not np.array_equal(a, c)


def test_sample_counts_draws_each_sliver_from_its_own_seed():
    """Sliver m draws D, A, L and R in turn from default_rng(derived_seed(seed, m)),
    so its counts do not depend on the other slivers."""
    grid = make_grid(8, 0.5)
    expected = readout_intensities(_chirped_state(grid), PHI_BENCH, 1e5)
    noisy = sample_counts(expected, sliver_seeds(42, 8))
    for m in range(8):
        rng = np.random.default_rng(derived_seed(42, m))
        for i in range(len(READOUT_KEYS)):
            assert np.array_equal(noisy[i, m], rng.poisson(expected[i, m]).astype(float))


def test_sample_counts_concentrates_at_large_budget():
    rng = np.random.default_rng(6)
    grid = make_grid(16, 0.5)
    rho = _chirped_state(grid)
    mean = readout_intensities(rho, PHI_BENCH, 1e12)
    error = np.abs(sample_counts(mean, sliver_seeds(7, 16)) - mean)
    # every bin of every sliver lies within 6 sigma of its mean, and where
    # 1e-4 of the mean is at least 6 sigma (mean >= 3.6e9), within 1e-4 of it
    assert np.all(error <= 6.0 * np.sqrt(mean))
    big = mean >= 3.6e9
    assert big.sum() > mean.size // 2
    assert np.max(error[big] / mean[big]) < 1e-4


def test_sample_counts_beyond_poisson_limit_is_config_error():
    grid = make_grid(16, 0.5)
    expected = readout_intensities(_chirped_state(grid), PHI_BENCH, 1.0)
    limit = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)
    expected[2, 5, 3] = limit  # numpy still draws this mean
    assert sample_counts(expected, sliver_seeds(1, 16))[2, 5, 3] > 0
    expected[2, 5, 3] = np.nextafter(limit, np.inf)
    with pytest.raises(ConfigError, match="photon_budget"):
        sample_counts(expected, sliver_seeds(1, 16))
    with pytest.raises(ConfigError, match="photon_budget"):
        sample_counts(readout_intensities(_chirped_state(grid), PHI_BENCH, 1e300),
                      sliver_seeds(1, 16))


@pytest.mark.parametrize("bad", [-1e-9, -1.0, np.nan])
def test_sample_counts_rejects_negative_or_nan_means(bad):
    grid = make_grid(8, 0.5)
    expected = readout_intensities(_chirped_state(grid), PHI_BENCH, 1.0)
    expected[1, 4, 2] = bad
    with pytest.raises(ContractError, match=r"^expected counts must be nonnegative and not NaN"):
        sample_counts(expected, sliver_seeds(1, 8))


@pytest.mark.parametrize("length", [0, 7, 9])
def test_sample_counts_needs_one_seed_per_sliver(length):
    grid = make_grid(8, 0.5)
    expected = readout_intensities(_chirped_state(grid), PHI_BENCH, 1.0)
    with pytest.raises(ContractError, match=rf"^{length} sliver seeds given for 8 slivers$"):
        sample_counts(expected, list(range(length)))


def test_sample_counts_needs_four_analyzers_and_a_sliver_axis():
    expected = readout_intensities(_chirped_state(make_grid(8, 0.5)), PHI_BENCH, 1.0)
    for bad in (expected[:, 2], expected[:3]):  # one sliver's (4, n); three analyzers
        with pytest.raises(ContractError,
                           match=r"^expected counts of shape .*: expected \(4, b, n\)$"):
            sample_counts(bad, sliver_seeds(1, 8))


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.bool_(True), np.float64(2.0), "3", None])
def test_sample_counts_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    """Unchecked, a seed of -1 ended in numpy's bare ValueError, 1.5 in a
    TypeError, and None drew from fresh entropy."""
    expected = readout_intensities(_chirped_state(make_grid(8, 0.5)), PHI_BENCH, 1e3)
    seeds = sliver_seeds(1, 8)
    with pytest.raises(ConfigError, match=r"^seed must be a nonnegative integer, got "):
        sample_counts(expected, seeds[:5] + [seed] + seeds[6:])
    assert np.array_equal(sample_counts(expected, [np.uint64(s) for s in seeds]),
                          sample_counts(expected, seeds))


def test_sample_counts_takes_a_1d_array_of_seeds_as_the_equal_list():
    expected = readout_intensities(_chirped_state(make_grid(8, 0.5)), PHI_BENCH, 1e3)
    seeds = sliver_seeds(1, 8)
    assert np.array_equal(sample_counts(expected, np.array(seeds, dtype=np.uint64)),
                          sample_counts(expected, seeds))
    assert np.array_equal(sample_counts(expected, np.arange(8)),
                          sample_counts(expected, list(range(8))))


def test_calibration_constants():
    assert calibrate_estimator() == EstimatorCalibration(0.5, 0.5, -1)
    assert default_calibration() == default_calibration()


@pytest.mark.parametrize("alter, closes", [
    (lambda c: c[[0, 1, 3, 2]], False),
    (lambda c: c[[1, 0, 2, 3]], False),
    (lambda c: np.nextafter(c, np.inf), True),
], ids=["L-R-swapped", "D-A-swapped", "one-ulp-up"])
def test_calibration_checks_the_readout_without_fitting_it(monkeypatch, alter, closes):
    intensities = weaksim.SliverReadout.intensities
    monkeypatch.setattr(weaksim.SliverReadout, "intensities",
                        lambda self, lo, hi: alter(intensities(self, lo, hi)))
    try:
        if closes:
            assert calibrate_estimator() == EstimatorCalibration(0.5, 0.5, -1)
        else:
            with pytest.raises(NumericalIntegrityError, match="failed to close"):
                calibrate_estimator()
    finally:
        default_calibration.cache_clear()


def test_scans_run_the_closure_check_once_per_process(monkeypatch):
    """The check runs at the start of ``mean_estimate``, under every scan, and
    not inside the estimator itself."""
    calls = []
    calibrate = weaksim.calibrate_estimator
    monkeypatch.setattr(weaksim, "calibrate_estimator", lambda: calls.append(1) or calibrate())
    default_calibration.cache_clear()
    try:
        grid = make_grid(8, 0.5)
        rho = _chirped_state(grid)
        for noise in (False, True):
            scan(rho, _cfg(grid, photon_budget=1e6), noise=noise, seed=1)
        assert calls == [1]
        default_calibration.cache_clear()
        estimate_dirac_column(readout_intensities(rho, PHI_BENCH, 1.0), PHI_BENCH)
        assert calls == [1]
    finally:
        default_calibration.cache_clear()


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


@pytest.mark.parametrize("bad_phi", [0.0, -0.1, 2.0, np.nan, np.inf])
def test_estimator_rejects_phi_outside_the_coupling_range(bad_phi):
    grid = make_grid(8, 0.5)
    counts = readout_intensities(_chirped_state(grid), PHI_BENCH, 1.0)
    with pytest.raises(ConfigError, match=r"^coupling angle phi .* not in \(0, pi/2\]$"):
        estimate_dirac_column(counts, bad_phi)
    with pytest.raises(ConfigError, match="coupling angle phi"):
        estimate_dirac_column(counts[:, 3], bad_phi)
    # the strong-measurement limit stays a valid readout angle
    assert np.all(np.isfinite(estimate_dirac_column(counts, 0.5 * np.pi)))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_estimator_rejects_non_finite_counts(bad):
    grid = make_grid(8, 0.5)
    counts = readout_intensities(_chirped_state(grid), PHI_BENCH, 1.0)
    counts[0, 2, 3] = bad
    counts[2, 6, 1] = bad
    with pytest.raises(ContractError, match=r"^sliver 2: analyzer counts are not finite$"):
        estimate_dirac_column(counts, PHI_BENCH)
    with pytest.raises(ContractError, match=r"^analyzer counts are not finite$"):
        estimate_dirac_column(counts[:, 6], PHI_BENCH)
    assert np.all(np.isfinite(estimate_dirac_column(counts[:, 5], PHI_BENCH)))


def test_estimator_refuses_an_estimate_that_is_not_finite():
    """At phi = 1e-320 the scale T sin(phi) underflows.  At the parent every
    estimate was NaN or infinite, with warnings printed, and ``scan``
    returned that distribution silently."""
    grid = make_grid(8, 0.5)
    rho = _chirped_state(grid)
    counts = readout_intensities(rho, PHI_BENCH, 1.0)
    with pytest.raises(NumericalIntegrityError, match=r"^sliver 3: estimate is not finite"):
        estimate_dirac_column(counts[:, 3:], 1e-320, first_sliver=3)
    with pytest.raises(NumericalIntegrityError, match=r"^estimate is not finite"):
        estimate_dirac_column(counts[:, 6], 1e-320)
    with pytest.raises(NumericalIntegrityError, match=r"^sliver 0: estimate is not finite"):
        scan(rho, _cfg(grid, phi=1e-320, photon_budget=1e8))
    # only sliver 5's T sin(phi), about 1e-330, underflows to 0
    counts[:, 5] *= 1e-310
    with pytest.raises(NumericalIntegrityError, match=r"^sliver 5: "):
        estimate_dirac_column(counts, 1e-20)


@pytest.mark.parametrize("analyzers", [1, 3, 5])
def test_estimator_needs_four_analyzers_first(analyzers):
    counts = readout_intensities(_chirped_state(make_grid(8, 0.5)), PHI_BENCH, 1.0)
    counts = np.concatenate((counts, counts))[:analyzers]
    for bad in (counts, counts[:, 2], np.ones(4)):
        with pytest.raises(ContractError, match=r"^analyzer counts of shape .*: expected \(4, n\)"):
            estimate_dirac_column(bad, PHI_BENCH)


def test_estimator_takes_integer_counts_as_floats():
    """Unsigned or narrow integer counts wrapped in d - a at the parent: uint8
    counts with D below A read D - A = 254."""
    counts = np.array([[1, 2, 120], [3, 1, -100], [1, 1, 1], [2, 1, 1]])
    est = estimate_dirac_column(counts.astype(float), PHI_BENCH)
    assert np.array_equal(estimate_dirac_column(counts, PHI_BENCH), est)
    assert np.array_equal(estimate_dirac_column(counts.astype(np.int8), PHI_BENCH), est)
    low = counts[:, :2]  # D below A in bin 0
    assert np.array_equal(estimate_dirac_column(low.astype(np.uint8), PHI_BENCH),
                          estimate_dirac_column(low.astype(float), PHI_BENCH))


_NOT_REAL = {
    "strings": (np.full((4, 2, 8), "1"), r"of dtype <U1 are not real numbers$"),
    "complex": (np.ones((4, 2, 8), complex), r"of dtype complex128 are not real numbers$"),
    "bools": (np.ones((4, 2, 8), bool), r"of dtype bool are not real numbers$"),
    "None": (None, r"of dtype object are not real numbers$"),
    "a ragged list": ([[1.0, 2.0], [3.0]], r"cannot be read as an array \(.*\)$"),
}


@pytest.mark.parametrize("case", list(_NOT_REAL))
def test_counts_that_are_not_real_numbers_are_refused_first(case):
    """Checked before phi, the seeds and the shape; at the parent each case
    raised TypeError, AttributeError or ValueError in one of the two
    functions, and complex counts gave a complex estimate."""
    counts, message = _NOT_REAL[case]
    with pytest.raises(ContractError, match=rf"^analyzer counts {message}"):
        estimate_dirac_column(counts, np.nan)
    with pytest.raises(ContractError, match=rf"^expected counts {message}"):
        sample_counts(counts, [])


def test_sample_counts_reads_a_nested_list():
    means = np.full((4, 2, 8), 3.0)
    assert np.array_equal(sample_counts(means.tolist(), [1, 2]), sample_counts(means, [1, 2]))


@pytest.mark.parametrize("first", ["a", None, True, 1.5, "3", [1]], ids=repr)
def test_estimator_refuses_a_first_sliver_that_is_not_an_integer(first):
    counts = np.ones((4, 2, 8))
    with pytest.raises(ContractError, match=r"^first_sliver must be an integer, got "):
        estimate_dirac_column(counts, PHI_BENCH, first_sliver=first)


@pytest.mark.parametrize("first", [10 ** 400, np.int64(np.iinfo(np.int64).max), np.int64(3)],
                         ids=["10 ** 400", "int64 max", "int64 3"])
def test_the_sliver_label_is_summed_in_python_ints(first):
    """The label of sliver 1 is first_sliver + 1, past the int64 range too:
    10 ** 400 raised OverflowError at the parent, and an int64 at its
    largest would overflow in numpy."""
    counts = np.ones((4, 2, 8))
    counts[:2, 1] = 0.0
    with pytest.raises(NoPhotonsError, match=rf"^sliver {int(first) + 1}: "):
        estimate_dirac_column(counts, PHI_BENCH, first_sliver=first)


@pytest.mark.parametrize("bad_phi", [-1e-9, np.pi / 2 + 1e-9, 5.0, np.nan, np.inf])
def test_backaction_offset_rejects_phi_outside_the_coupling_range(bad_phi):
    rho = random_density_matrix(make_grid(8, 0.5), np.random.default_rng(9))
    with pytest.raises(ConfigError, match=r"^coupling angle phi .* not in \[0, pi/2\]$"):
        backaction_offset(rho, bad_phi)
    # both ends of the range stay valid angles
    assert np.all(np.isfinite(backaction_offset(rho, 0.5 * np.pi)))


@pytest.mark.parametrize("n", [2, 3, 9, 16, 97])
@pytest.mark.parametrize("x0", [0.0, 3e-4])
def test_momentum_readout_matches_the_explicit_overlap_basis(n, x0):
    rng = np.random.default_rng(n)
    grid = make_grid(n, 44e-3 / n, x0)
    rho = random_density_matrix(grid, rng)
    u = grid.overlap_matrix
    for phi in (PHI_BENCH, 0.5 * np.pi):
        dense = readout_intensities(rho, phi, 1e6, basis=u)
        assert np.max(np.abs(readout_intensities(rho, phi, 1e6) - dense)) <= 1e-13 * dense.max()
        dense = (1.0 - np.cos(phi)) * rho.rho.diagonal().real[:, None] * np.abs(u) ** 2
        offset = backaction_offset(rho, phi)
        assert offset.shape == (n, 1)
        assert np.max(np.abs(offset - dense)) <= 1e-13 * dense.max()


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


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.bool_(True), np.float64(2.0), "3"])
def test_a_noisy_scan_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    grid = make_grid(8, 0.5)
    rho = random_density_matrix(grid, np.random.default_rng(13))
    cfg = _cfg(grid, photon_budget=1e6)
    with pytest.raises(ConfigError, match=r"^seed must be a nonnegative integer, got "):
        scan(rho, cfg, noise=True, seed=seed)
    assert np.array_equal(scan(rho, cfg, noise=True, seed=np.uint8(3)).d,
                          scan(rho, cfg, noise=True, seed=3).d)


@pytest.mark.parametrize("master", [-1, 1.5, True, np.bool_(True), np.float64(2.0), "3", None])
def test_derived_seed_refuses_a_master_that_is_not_a_nonnegative_integer(master):
    """At the parent ``derived_seed(1.5, 0)`` was ``derived_seed(1, 0)``, True
    ran as 1 and -1 ended in numpy's bare ValueError."""
    with pytest.raises(ConfigError, match=r"^seed must be a nonnegative integer, got "):
        derived_seed(master, 0)
    with pytest.raises(ConfigError, match=r"^seed must be a nonnegative integer, got "):
        sliver_seeds(master, 2)


@pytest.mark.parametrize("index", [-1, 1.5, True, np.bool_(True), np.float64(2.0), "3", None])
def test_derived_seed_refuses_an_index_that_is_not_a_nonnegative_integer(index):
    """A truncated index made ``derived_seed(3, 1.5)`` and ``derived_seed(3, True)``
    equal ``derived_seed(3, 1)``, and an index of -1 ended in numpy's bare ValueError."""
    with pytest.raises(ConfigError, match=r"^seed index must be a nonnegative integer, got "):
        derived_seed(3, index)


def test_derived_seed_takes_numpy_integer_masters():
    assert derived_seed(np.uint64(2**64 - 1), 3) == derived_seed(2**64 - 1, 3)
    assert derived_seed(np.int32(7), 0) == derived_seed(7, 0)
    assert derived_seed(7, np.uint16(4)) == derived_seed(7, 4)
    assert sliver_seeds(np.uint64(5), 3) == [derived_seed(5, m) for m in range(3)]


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
    expected = estimate_dirac_column(sample_counts(counts, sliver_seeds(5, 8)), cfg.phi)
    assert np.array_equal(noisy.d, expected)


def test_correct_diagonals_identity_and_factor():
    rng = np.random.default_rng(15)
    grid = make_grid(8, 0.5)
    rho = random_density_matrix(grid, rng)
    same = correct_diagonals(rho, 0.0)
    assert np.max(np.abs(same.rho - rho.rho)) < 1e-15
    assert np.cos(PHI_BENCH) == pytest.approx(0.97469, abs=1e-5)


@pytest.mark.parametrize("bad_phi", [-1e-9, 0.5 * np.pi, np.nan])
def test_correct_diagonals_rejects_phi_outside_its_range(bad_phi):
    rho = random_density_matrix(make_grid(8, 0.5), np.random.default_rng(15))
    with pytest.raises(ConfigError, match=r"^coupling angle phi .* not in \[0, pi/2\)$"):
        correct_diagonals(rho, bad_phi)


@pytest.mark.parametrize("n", [16, 97, 130, 192])
@pytest.mark.parametrize("displaced", [False, True], ids=["momentum", "displaced"])
def test_scan_equals_the_whole_array_composition(n, displaced):
    """Run block by block, a partial last block included, scan and the
    displaced-camera scan give the whole-array result to the last bit; the
    displaced camera's is the momentum scan of V rho V^dag."""
    grid, bench = bench_grid(n)
    rho = random_density_matrix(grid, np.random.default_rng(n))
    dz = 0.084
    state = _displaced_state(rho, dz) if displaced else rho
    for noise in (False, True):
        for correct in (False, True):
            want = scan_oracle(state, bench, noise=noise, seed=3, correct=correct)
            got = scan(state, bench, noise=noise, seed=3, correct=correct)
            assert np.array_equal(got.d, want)
            if displaced:
                run = direct_measure_displaced(rho, bench, dz, noise=noise, seed=3,
                                               correct=correct)
                assert np.array_equal(run.e, want)


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
