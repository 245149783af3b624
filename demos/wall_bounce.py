"""Wave packet bouncing off a hard wall.

A Gaussian packet is launched at the right wall of a closed box. The
implicit engine handles the reflection unitarily: during impact the
incoming and outgoing components overlap and the density near the wall
develops interference fringes with near-zero minima (which is exactly the
regime where a node floor would trip, so this demo runs the wavefunction
engine; densities come out of the trace with the floor disabled). After
the bounce the packet travels back with its mean momentum reversed, a
little wider than it came in because free dispersion never stops.

The energy column is instructive in its failure: the reported value is
the density-phase functional, whose grad-log-rho term is evaluated across
the fringe minima during impact. It excurses by several percent mid-bounce
and returns once the fringes fade; comparing start to end shows the
integrator itself conserving energy to ~1e-5 relative.

Writes profile.csv with the density before, during, and after impact, and
track.csv with the mean position and energy over time.
"""

import argparse
import os

import numpy as np

from edsim import (
    EvolutionConfig,
    Grid1D,
    PhysicalParams,
    WaveFunction,
    free_gaussian,
)
from edsim.dynamics import evolve
from edsim.io import atomic_write


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="demo_out/wall_bounce")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    g = Grid1D(-8.0, 8.0, 512, boundary="hardwall")
    p = PhysicalParams()
    psi = WaveFunction(
        g, free_gaussian(g.cells, sigma0=0.7, k0=5.0, x0=2.0)).normalized()

    t_hit = 6.0 / 5.0  # distance to the wall over group velocity
    cfg = EvolutionConfig(dt=1e-3, t_final=2 * t_hit, engine="schrodinger",
                          snapshot_stride=60)
    trace = evolve(psi, p, cfg)

    ts, rhos, _ = trace.field_arrays()
    means = rhos @ g.cells * g.dx
    energies = np.array([d.energy for d in trace.diagnostics])
    norms = np.array([d.norm for d in trace.diagnostics])

    turn = int(np.argmax(means))
    print("hard wall at x = +8, packet launched from x = +2 with k0 = 5")
    print(f"mean position: start {means[0]:+.3f}, "
          f"turnaround {means[turn]:+.3f} at t = {ts[turn]:.2f}, "
          f"end {means[-1]:+.3f}")
    print(f"norm stays within {np.abs(norms - 1).max():.1e} of 1")
    print(f"energy: start {energies[0]:.4f}, end {energies[-1]:.4f} "
          f"(drift {abs(energies[-1] - energies[0]):.1e})")
    print(f"mid-impact excursion of the density-phase functional: "
          f"{np.abs(energies - energies[0]).max():.2f} "
          "(grad-log-rho across fringe minima, not integrator error)")

    k_imp = int(np.argmin(np.abs(ts - t_hit)))
    near_wall = g.cells > 6.0
    fringe = rhos[k_imp][near_wall]
    print(f"fringes at impact (x > 6): max density {fringe.max():.3f}, "
          f"deepest minimum {fringe.min():.2e}")

    width0 = float(np.sqrt(np.sum(rhos[0] * (g.cells - means[0]) ** 2) * g.dx))
    width1 = float(np.sqrt(np.sum(rhos[-1] * (g.cells - means[-1]) ** 2) * g.dx))
    print(f"packet width: {width0:.3f} out, {width1:.3f} back")

    prof = ["x,rho_start,rho_impact,rho_end"]
    for i, x in enumerate(g.cells):
        prof.append(f"{x:.17g},{rhos[0][i]:.17g},{rhos[k_imp][i]:.17g},"
                    f"{rhos[-1][i]:.17g}")
    atomic_write(os.path.join(args.out, "profile.csv"), "\n".join(prof) + "\n")
    track = ["t,mean,energy"]
    track += [f"{t:.17g},{m:.17g},{e:.17g}" for t, m, e in zip(ts, means, energies)]
    atomic_write(os.path.join(args.out, "track.csv"), "\n".join(track) + "\n")
    print(f"\nwrote {args.out}/profile.csv and track.csv")


if __name__ == "__main__":
    main()
