"""The command line against the brute-force oracles, on drawn configs.

Each example draws a lattice (n <= 32, dx, x0), the optics (lambda, f), a
pure or mixed bench state with a wedge tilt, and two camera displacements,
writes them to a config file and runs the chain in process through
``cli.main``.  What the stages write is compared with oracles that share no
code with the stages:

* ``dirac_exact`` and the ``dirac_measured`` of ``measure --no-noise``
  with ``projector_trace_oracle`` of the state;
* ``density`` (from ``dirac_exact``) and ``density_measured`` with the state;
* each ``propagated_dz*`` with ``displaced_trace_oracle``, its displaced
  basis V^dag U formed here from V = exp(-i pi dz (x - x0)^2 / (lambda f^2));

each within 1e-12 of the largest entry of the oracle, and a noisy
``measure`` byte for byte with ``measure_oracle``.  The displacements are
scaled so that the largest chirp phase stays below 10 pi, where the
rounding of (x - x0)^2 here stays far below that tolerance.  The draws are
derandomised.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from diracsim import DensityMatrix, cli
from diracsim.config import load_run_config, propagated_name
from diracsim.fileio import grid_from_meta, read_matrix
from conftest import displaced_trace_oracle, measure_oracle, projector_trace_oracle

_SETTINGS = settings(derandomize=True, max_examples=10, deadline=None)
_TOL = 1e-12


def _close(got, want):
    return np.max(np.abs(got - want)) <= _TOL * np.max(np.abs(want))


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


@_SETTINGS
@given(n=st.integers(2, 32), dx=st.floats(1e-6, 1e-2), shift=st.floats(-64, 64),
       wavelength=st.floats(1e-7, 1e-5), focal_length=st.floats(0.05, 2.0),
       mixed=st.booleans(), tilt=st.floats(-1e4, 1e4), aperture=st.floats(0.1, 1.0),
       edge=st.floats(-0.9, 0.9), turns=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=32, dx=44e-3 / 32, shift=16.0, wavelength=780e-9, focal_length=1.0, mixed=True,
         tilt=300.0, aperture=1.0, edge=0.1, turns=(0.0, 1.0), seed=1)
@example(n=31, dx=1e-4, shift=-40.5, wavelength=5e-7, focal_length=0.3, mixed=False,
         tilt=-2e3, aperture=0.5, edge=-0.3, turns=(0.25, 0.75), seed=2)
def test_the_chain_matches_the_brute_force_oracles(n, dx, shift, wavelength, focal_length,
                                                   mixed, tilt, aperture, edge, turns, seed):
    x0, half_span = shift * dx, n * dx / 2
    halfwidth = max(aperture * half_span, dx)  # the aperture holds a site for any n
    # dz at turns = 1 takes the chirp phase to 10 pi at the lattice's edge
    dzs = tuple(t * 10 * wavelength * focal_length ** 2 / half_span ** 2 for t in turns)
    assume(len({propagated_name(dz) for dz in dzs}) == 2)
    values = {
        "grid.n": n, "grid.dx": dx, "grid.x0": x0, "units.wavelength": wavelength,
        "units.focal_length": focal_length, "bench.mixed": str(mixed).lower(),
        "bench.wedge_tilt": tilt, "bench.aperture_halfwidth": halfwidth,
        "bench.edge_position": x0 + edge * halfwidth, "pipeline.scans": 2,
        "pipeline.seed": seed, "propagation.dz": ", ".join(map(repr, dzs)),
    }
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "run.cfg"
        cfg.write_text("".join(f"{key} = {value!r}\n" if isinstance(value, float)
                               else f"{key} = {value}\n" for key, value in values.items()))
        out, noisy, want = tmp / "out", tmp / "noisy", tmp / "oracle"
        for stage in ("gen-state", "exact", "reconstruct", "propagate"):
            assert _run(stage, "--config", str(cfg), "--out", str(out)) == 0, stage
        assert _run("measure", "--no-noise", "--config", str(cfg), "--out", str(out)) == 0
        assert _run("measure", "--config", str(cfg), "--state", str(out / "state.txt"),
                    "--out", str(noisy)) == 0

        rho, meta = read_matrix(out / "state.txt")
        grid = grid_from_meta(meta)
        d = projector_trace_oracle(grid, rho)
        for name in ("dirac_exact.txt", "dirac_measured.txt"):
            assert _close(read_matrix(out / name)[0], d), name
        for name in ("density.txt", "density_measured.txt"):
            assert _close(read_matrix(out / name)[0], rho), name
        x = grid.coords - grid.x0
        for dz in dzs:
            v = np.exp(-1j * np.pi * dz * x ** 2 / (wavelength * focal_length ** 2))
            e = displaced_trace_oracle(v.conj()[:, None] * grid.overlap_matrix, rho)
            assert _close(read_matrix(out / propagated_name(dz))[0], e), dz

        measure_oracle(load_run_config(str(cfg)), DensityMatrix(grid=grid, rho=rho), str(want))
        written = sorted(path.relative_to(want) for path in want.rglob("*.txt"))
        assert sorted(path.relative_to(noisy) for path in noisy.rglob("*.txt")) == written
        for rel in written:
            assert (noisy / rel).read_bytes() == (want / rel).read_bytes(), rel
