"""Two ways to put definite positions under an evolving density.

Both samplers draw initial positions from rho(x, 0) and advance them so
the cloud tracks rho(x, t) exactly: one follows the probability current
(smooth deterministic drift), the other takes the osmotic-drift random
walk (jittery paths). The individual paths look nothing alike, and the
demo quantifies that with the mean per-step displacement. The clouds are
statistically indistinguishable from each other and from the evolved
density, which the final KS statistics confirm.

Writes quantiles_<mode>.csv (cloud quantiles over time, plot-ready) and a
summary of the KS comparisons.
"""

import argparse
import os

import numpy as np

from edsim import (
    EvolutionConfig,
    Grid1D,
    PhysicalParams,
    TraceFields,
    WaveFunction,
    advance_ensemble,
    cdf_from_density,
    free_gaussian,
    ks_critical,
    ks_statistic,
    ks_two_sample,
    sample_initial,
)
from edsim.dynamics import evolve
from edsim.io import atomic_write
from edsim.trajectories import SAMPLER_MODES

N_PARTICLES = 20000
QS = (0.05, 0.25, 0.5, 0.75, 0.95)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="demo_out/particle_clouds")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    g = Grid1D(-20.0, 20.0, 512)
    p = PhysicalParams()
    psi = WaveFunction(g, free_gaussian(g.cells, k0=1.0, x0=-1.0)).normalized()
    cfg = EvolutionConfig(dt=2e-3, t_final=1.0, engine="schrodinger",
                          snapshot_stride=50)
    fields = TraceFields.from_trace(evolve(psi, p, cfg))
    ts, rhos = fields.ts, fields.rhos

    finals = {}
    for mode in SAMPLER_MODES:
        ens = sample_initial(rhos[0], g, N_PARTICLES, args.seed)
        lines = ["t," + ",".join(f"q{int(100 * q):02d}" for q in QS)]
        steps = []
        for k in range(len(ts)):
            if k:
                prev = ens.positions
                ens = advance_ensemble(ens, fields, cfg.dt, mode, t_target=float(ts[k]))
                steps.append(np.mean(np.abs(ens.positions - prev)))
            qs = np.quantile(ens.positions, QS)
            lines.append(",".join([f"{ts[k]:.17g}"] + [f"{v:.17g}" for v in qs]))
        atomic_write(os.path.join(args.out, f"quantiles_{mode}.csv"),
                     "\n".join(lines) + "\n")
        finals[mode] = ens.positions
        # displacement per 0.1 time block, averaged over the cloud
        print(f"{mode}: mean displacement per snapshot interval "
              f"{np.mean(steps):.4f}")

    print()
    crit = ks_critical(N_PARTICLES)
    cdf = cdf_from_density(g, rhos[-1])
    for mode, xs in finals.items():
        d = ks_statistic(xs, cdf)
        print(f"KS({mode} vs evolved density) = {d:.2e}  "
              f"(1% critical {crit:.2e}) {'ok' if d < crit else 'MISMATCH'}")
    d2, crit2 = ks_two_sample(finals["current_flow"], finals["entropic_diffusion"])
    print(f"KS(cloud vs cloud)            = {d2:.2e}  "
          f"(1% critical {crit2:.2e}) {'ok' if d2 < crit2 else 'MISMATCH'}")
    print(f"\nwrote quantiles_<mode>.csv under {args.out}")


if __name__ == "__main__":
    main()
