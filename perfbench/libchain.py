"""The phase_space_lib workload: in-process library calls, no files.

Run as a script it repeats the chain until ``--seconds`` have passed (at
least once) and prints a JSON list with one object per chain: when each step
started and ended (``time.monotonic``) and the CPU seconds it used, and the
residuals that the correctness gates check.

    python3 perfbench/libchain.py --config big.cfg --small-config small.cfg --seconds 15

The benchmark imports ``run_chain`` for the traced run.  Library functions
are looked up through their modules at call time, so a tracer that rebinds
them sees every call.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from diracsim import bayesprop, config, dirac, qstate


def run_chain(big_cfg: str, small_cfg: str) -> dict:
    """Time the four steps once; return (start, end, CPU) per step and gate residuals."""
    cfg = config.load_run_config(big_cfg)
    small = config.load_run_config(small_cfg)
    times, residuals = {}, {}

    def clock():
        return time.monotonic(), time.process_time()

    def since(t):
        end, cpu = clock()
        return t[0], end, cpu - t[1]

    t = clock()
    rho = qstate.build_bench_state(cfg.bench, cfg.grid)
    times["state"] = since(t)

    t = clock()
    d = dirac.dirac_distribution(rho)
    dirac.marginal_x(d)
    dirac.marginal_p(d)
    dirac.purity(d)
    back = dirac.reconstruct_density(d)
    times["transform"] = since(t)
    residuals["round_trip"] = float(np.max(np.abs(back.rho - rho.rho)))

    t = clock()
    norm = 0.0
    for dz in cfg.dz_list:
        grid = cfg.grid
        unitary = bayesprop.build_kernel_unitary(grid, bayesprop.fresnel_unitary(grid, dz), dz)
        analytic = bayesprop.build_kernel_analytic(grid, dz)
        for kernel in (unitary, analytic):
            e = bayesprop.bayes_propagate(d, kernel).e
            norm = max(norm, abs(complex(e.sum()) - 1.0))
    times["kernel"] = since(t)
    residuals["propagated_norm"] = norm

    t = clock()
    rho_s = qstate.build_bench_state(small.bench, small.grid)
    d_s = dirac.dirac_distribution(rho_s)
    worst = 0.0
    for dz in small.dz_list:
        grid = small.grid
        kernel = bayesprop.build_kernel_unitary(grid, bayesprop.fresnel_unitary(grid, dz), dz)
        predicted = bayesprop.bayes_propagate(d_s, kernel)
        measured = bayesprop.direct_measure_displaced(rho_s, small.bench, dz, noise=False)
        worst = max(worst, float(np.max(np.abs(measured.e - predicted.e))))
    times["displaced"] = since(t)
    residuals["displaced_vs_bayes"] = worst

    return {"times": times, "residuals": residuals, "n": cfg.grid.n, "n_small": small.grid.n}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--small-config", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    chains = []
    start = time.perf_counter()
    while not chains or time.perf_counter() - start < args.seconds:
        chains.append(run_chain(args.config, args.small_config))
    print(json.dumps(chains))


if __name__ == "__main__":
    main()
