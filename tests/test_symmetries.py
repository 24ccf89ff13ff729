"""Metamorphic tests: the lattice's symmetries, checked with no oracle.

Each test draws a lattice and a state as ``tests/test_properties.py`` does
(n from 2 to 64, and 97; wide integer and non-integer shifts of x0; spacings
dx) with ranks 1 to 3, transforms the state by a symmetry of the lattice and
checks that the distribution, the state reconstructed from it and its Bayes
propagation move as the symmetry says:

* a cyclic shift of rho by s sites rolls d by s along x, bit for bit.  For
  odd n the momenta p_k = (k - n/2) dp are half-integer multiples of
  2 pi / (n dx), so the position lattice is anti-periodic and the sites that
  wrap carry -1 (``_twisted_shift``); a plain roll misses;
* the momentum kick K = diag(exp(2 pi i q m / n)) rolls d by q along k;
* conjugation rho -> rho* gives conj(d[m, (-k) mod n]);
* a chirp propagation keeps the x-marginal and commutes with the kick;
* ``reconstruct_density`` inverts the shifted and the kicked states.

Bounds are 1e-15 of the largest entry of the quantity compared (d, e, the
x-marginal or rho), or bit for bit.
"""

import numpy as np
from hypothesis import example, given, strategies as st

from diracsim import (DensityMatrix, DiracDistribution, bayes_propagate, build_kernel_unitary,
                      dirac_distribution, fresnel_unitary, marginal_x, random_density_matrix,
                      reconstruct_density)
from diracsim.cli import main
from diracsim.fileio import read_matrix, write_matrix
from test_properties import _SETTINGS, _SHIFTS, _SIZES, _SPACINGS, _lattice

_RANKS = st.integers(1, 3)
_SEEDS = st.integers(0, 2 ** 32 - 1)
_STEPS = st.integers(-10 ** 3, 10 ** 3)  # s or q, taken mod n


def _state(grid, rank, seed):
    return random_density_matrix(grid, np.random.default_rng(seed), rank=min(rank, grid.n))


def _twisted_shift(rho, s):
    """rho shifted cyclically by s sites along both axes; for odd n each site
    that wraps past the lattice's end carries -1."""
    n = len(rho)
    sign = np.ones(n)
    if n % 2:
        sign[:s % n] = -1.0  # rows and columns m < s came from m - s + n
    return sign[:, None] * np.roll(rho, (s, s), axis=(0, 1)) * sign


def _kick(rho, q):
    """K rho K^dag for K = diag(exp(2 pi i q m / n)): entry (m, j) times the
    one phase exp(2 pi i ((q (m - j)) mod n) / n), rounded once."""
    n = len(rho)
    m = np.arange(n)
    return rho * np.exp(2j * np.pi * ((q * (m[:, None] - m)) % n) / n)


def _close(got, want, scale):
    err = np.max(np.abs(got - want))
    assert err <= 1e-15 * np.max(np.abs(scale)), (err, np.max(np.abs(scale)))


@_SETTINGS
@given(n=_SIZES, shift=_SHIFTS, dx=_SPACINGS, rank=_RANKS, seed=_SEEDS, s=_STEPS)
@example(n=3, shift=0.5, dx=1.0, rank=1, seed=3, s=1)
@example(n=97, shift=-41.25, dx=0.01, rank=3, seed=2, s=-200)
def test_a_twisted_shift_rolls_d_along_x_bit_for_bit(n, shift, dx, rank, seed, s):
    grid = _lattice(n, shift, dx)
    rho = _state(grid, rank, seed).rho
    d = dirac_distribution(DensityMatrix(grid=grid, rho=rho)).d
    moved = _twisted_shift(rho, s)
    assert dirac_distribution(DensityMatrix(grid=grid, rho=moved)).d.tobytes() == \
        np.roll(d, s, axis=0).tobytes()
    back = reconstruct_density(DiracDistribution(grid=grid, d=np.roll(d, s, axis=0))).rho
    # equal values; the sign flip of _twisted_shift may turn an exact 0 into -0
    assert np.array_equal(back, _twisted_shift(
        reconstruct_density(DiracDistribution(grid=grid, d=d)).rho, s))
    _close(back, moved, moved)


def test_a_plain_roll_misses_on_an_odd_lattice():
    """Without the -1 on the wrapped sites the shift does not roll d: at
    n = 3 and 17 it misses by more than a tenth of max |d|."""
    for n in (3, 17):
        grid = _lattice(n, 0.0, 1.0)
        rho = _state(grid, 1, n).rho
        d = dirac_distribution(DensityMatrix(grid=grid, rho=rho)).d
        plain = dirac_distribution(DensityMatrix(grid=grid, rho=np.roll(rho, (1, 1), (0, 1)))).d
        assert np.max(np.abs(plain - np.roll(d, 1, axis=0))) > 0.1 * np.max(np.abs(d))


@_SETTINGS
@given(n=_SIZES, shift=_SHIFTS, dx=_SPACINGS, rank=_RANKS, seed=_SEEDS, q=_STEPS)
@example(n=2, shift=-3, dx=1e-6, rank=2, seed=1, q=1)
@example(n=97, shift=0.5, dx=0.37, rank=1, seed=4, q=-45)
def test_a_momentum_kick_rolls_d_along_k(n, shift, dx, rank, seed, q):
    grid = _lattice(n, shift, dx)
    rho = _state(grid, rank, seed).rho
    d = dirac_distribution(DensityMatrix(grid=grid, rho=rho)).d
    kicked = _kick(rho, q)
    dk = dirac_distribution(DensityMatrix(grid=grid, rho=kicked)).d
    _close(dk, np.roll(d, q, axis=1), d)
    _close(reconstruct_density(DiracDistribution(grid=grid, d=dk)).rho, kicked, kicked)


@_SETTINGS
@given(n=_SIZES, shift=_SHIFTS, dx=_SPACINGS, rank=_RANKS, seed=_SEEDS)
@example(n=63, shift=1000, dx=0.5, rank=3, seed=5)
def test_conjugation_reverses_the_momenta_and_conjugates_d(n, shift, dx, rank, seed):
    grid = _lattice(n, shift, dx)
    rho = _state(grid, rank, seed).rho
    d = dirac_distribution(DensityMatrix(grid=grid, rho=rho)).d
    dc = dirac_distribution(DensityMatrix(grid=grid, rho=rho.conj())).d
    _close(dc, np.conj(d[:, (-np.arange(n)) % n]), d)


@_SETTINGS
@given(n=_SIZES, shift=_SHIFTS, dx=_SPACINGS, rank=_RANKS, seed=_SEEDS, q=_STEPS,
       dz=st.floats(0.0, 0.5))
@example(n=256, shift=128, dx=44e-3 / 256, rank=1, seed=1, q=7, dz=0.084)  # the default bench
@example(n=31, shift=128.5, dx=44e-3 / 31, rank=2, seed=2, q=-3, dz=0.325)
def test_chirp_propagation_keeps_the_x_marginal_and_commutes_with_the_kick(
        n, shift, dx, rank, seed, q, dz):
    grid = _lattice(n, shift, dx)
    rho = _state(grid, rank, seed).rho
    dist = dirac_distribution(DensityMatrix(grid=grid, rho=rho))
    kernel = build_kernel_unitary(grid, fresnel_unitary(grid, dz), dz)
    e = bayes_propagate(dist, kernel).e
    before = marginal_x(dist)
    _close(marginal_x(DiracDistribution(grid=grid, d=e)), before, before)
    kicked = dirac_distribution(DensityMatrix(grid=grid, rho=_kick(rho, q)))
    _close(bayes_propagate(kicked, kernel).e, np.roll(e, q, axis=1), e)


def test_a_kicked_state_rolls_every_matrix_of_the_chain(tmp_path):
    """exact, measure --no-noise and propagate on a kicked state.txt write
    the unkicked chain's matrices rolled by q along k; reconstruct and
    measure's corrected reconstruction give the kicked state."""
    n, q = 32, 5
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid.n = {n}\ngrid.dx = {44e-3 / n!r}\npropagation.dz = 0.084, 0.16\n")
    plain, kicked = tmp_path / "plain", tmp_path / "kicked"
    assert main(["gen-state", "--config", str(cfg), "--out", str(plain)]) == 0
    rho, meta = read_matrix(str(plain / "state.txt"))
    write_matrix(str(kicked / "state.txt"), _kick(rho, q), meta)
    for out in (plain, kicked):
        for stage in (["exact"], ["measure", "--no-noise"], ["reconstruct"], ["propagate"]):
            assert main([*stage, "--config", str(cfg), "--out", str(out)]) == 0

    def pair(name):
        return read_matrix(str(plain / name))[0], read_matrix(str(kicked / name))[0]

    base, moved = pair("dirac_exact.txt")
    _close(moved, np.roll(base, q, axis=1), base)
    base, moved = pair("dirac_measured.txt")
    assert np.max(np.abs(moved - np.roll(base, q, axis=1))) < 1e-9
    want = read_matrix(str(kicked / "state.txt"))[0]
    _close(pair("density.txt")[1], want, want)
    assert np.max(np.abs(pair("density_measured.txt")[1] - want)) < 1e-9
    for dz in ("0.084", "0.16"):
        base, moved = pair(f"propagated_dz{dz}.txt")
        _close(moved, np.roll(base, q, axis=1), base)
