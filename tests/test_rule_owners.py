"""One owner per input rule: every entry point refuses with its owner's text.

Three rules are each decided by one function, which every caller passes its
own name for the value: the camera displacement
(``bayesprop._check_displacement``), the photon budget
(``qstate._check_budget``) and the trace of a state
(``qstate._check_trace``).  Each test below drives every entry point of one
rule with the same bad values and asks for the owner's own refusal under
the caller's name, byte for byte.  The fourth rule, the seed tree of a
noisy ``measure`` run (``weaksim.scan_seeds``), is checked against the
files that the command writes.
"""

import numpy as np
import pytest

from diracsim import qstate, weaksim
from diracsim.bayesprop import (PropagatedDistribution, _check_displacement,
                                build_kernel_analytic, build_kernel_unitary, fresnel_unitary)
from diracsim.cli import main
from diracsim.config import build_run_config, load_run_config
from diracsim.errors import ConfigError, ContractError
from diracsim.fileio import grid_from_meta, read_matrix
from diracsim.lattice import make_grid
from diracsim.qstate import BenchConfig, DensityMatrix, _built_state, _check_budget, _check_trace

from conftest import load_counts

GRID = build_run_config({"grid.n": 16, "grid.dx": 0.00275}).grid
BAD_NUMBERS = (-1.0, -np.inf, np.inf, np.nan)


def _refusal(error, call, *args) -> str:
    with pytest.raises(error) as caught:
        call(*args)
    return str(caught.value)


@pytest.mark.parametrize("dz", BAD_NUMBERS)
def test_every_displacement_is_refused_by_its_owner_under_the_callers_name(dz):
    camera = _refusal(ConfigError, _check_displacement, dz)
    assert camera == f"camera displacement dz {dz!r} must be finite and nonnegative"
    entries = {
        "fresnel_unitary": lambda: fresnel_unitary(GRID, dz),
        "build_kernel_unitary": lambda: build_kernel_unitary(GRID, np.ones(16), dz),
        "build_kernel_analytic": lambda: build_kernel_analytic(GRID, dz),
        "PropagatedDistribution": lambda: PropagatedDistribution(GRID, dz, np.eye(16), "made"),
    }
    for name, call in entries.items():
        assert _refusal(ConfigError, call) == camera, name
    key = "propagation.dz: displacement"
    owned = _refusal(ConfigError, _check_displacement, dz, key)
    assert owned == f"{key} {dz!r} must be finite and nonnegative"
    for value in ((dz,), (0.1, dz), f"0.1, {dz!r}"):
        assert _refusal(ConfigError, build_run_config, {"propagation.dz": value}) == owned


@pytest.mark.parametrize("budget", BAD_NUMBERS)
def test_every_photon_budget_is_refused_by_its_owner_under_the_callers_name(budget):
    rho = qstate.build_bench_state(BenchConfig(22e-3, 25e-3), GRID)
    plain = _refusal(ConfigError, _check_budget, budget)
    assert plain == f"photon_budget {budget} must be finite and nonnegative"
    assert _refusal(ConfigError, weaksim.sliver_readout, rho, 0.2, budget) == plain
    keyed = _refusal(ConfigError, _check_budget, budget, "bench.photon_budget")
    assert keyed == f"bench.photon_budget {budget} must be finite and nonnegative"
    bench = BenchConfig(22e-3, 25e-3, photon_budget=budget)
    assert _refusal(ConfigError, bench.validate, GRID) == keyed
    for value in (budget, repr(budget)):
        assert _refusal(ConfigError, build_run_config, {"bench.photon_budget": value}) == keyed


@pytest.mark.parametrize("scale", [0.0, 0.25, 2.0, 1e300])
def test_every_trace_is_refused_by_its_owner(scale):
    grid = make_grid(8, 0.5)

    def rho():  # Hermitian and PSD, of trace 8 * scale
        return np.eye(8, dtype=complex) * scale

    owned = _refusal(ContractError, _check_trace, rho())
    assert owned == f"density matrix trace {rho().trace()} deviates from 1"
    entries = {
        "DensityMatrix.validate": lambda: DensityMatrix(grid, rho()).validate(),
        "_built_state": lambda: _built_state(grid, rho()),
        "mix": lambda: qstate.mix([(DensityMatrix(grid, rho()), 1.0)]),
    }
    for name, call in entries.items():
        assert _refusal(ContractError, call) == owned, name


def test_a_trace_exactly_at_the_tolerance_is_taken_on_every_route():
    # |tr - 1| is exactly TRACE_TOL: an imaginary part of TRACE_TOL split over
    # two diagonal entries, which leaves a Hermiticity residual of exactly
    # HERMITICITY_TOL, also taken
    grid = make_grid(2, 1.0)
    rho = np.diag([0.5 + 0.5j * qstate.TRACE_TOL] * 2)
    assert abs(rho.trace() - 1.0) == qstate.TRACE_TOL
    _check_trace(rho)
    DensityMatrix(grid, rho.copy()).validate()
    _built_state(grid, rho.copy())
    qstate.mix([(DensityMatrix(grid, rho.copy()), 1.0)])


def test_measure_draws_each_scan_from_the_seed_tree_of_weaksim(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("grid.n = 16\ngrid.dx = 0.00275\npipeline.scans = 2\npipeline.seed = 77\n")
    out = tmp_path / "out"
    for stage in ("gen-state", "measure"):
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = load_run_config(str(cfg_path))
    tree = weaksim.scan_seeds(cfg.seed, 2, 16)
    assert tree == [weaksim.sliver_seeds(weaksim.derived_seed(77, 10_000_000 + k), 16)
                    for k in range(2)]
    for m in range(16):
        _, meta = load_counts(out / "counts" / f"sliver_{m:04d}.txt")
        assert meta["seed"] == str(tree[0][m])
    arr, meta = read_matrix(str(out / "state.txt"))
    state = DensityMatrix(grid=grid_from_meta(meta, "state.txt"), rho=arr)
    readout = weaksim.sliver_readout(state, cfg.bench.phi, cfg.bench.photon_budget)
    raw, offset = weaksim.mean_estimate(readout, tree)
    assert read_matrix(str(out / "dirac_measured.txt"))[0].tobytes() == (raw + offset).tobytes()
