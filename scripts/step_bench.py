#!/usr/bin/env python3
"""Time one Crank-Nicolson step and one density-phase step against another checkout.

Usage, from any directory:

    python3 scripts/step_bench.py BASE_CHECKOUT [--config INI] [--blocks 12]

Each checkout gets one Python subprocess with PYTHONPATH at its own src. A
subprocess reads the INI (default perfbench/workloads/engines.ini), takes its
grid, physics, initial state and first [evolution] dt, builds the CN solver
and the density-phase engine once, and warms both up. On each request it
steps each engine STEPS_PER_BLOCK times from the initial state and answers with the
mean time of one step in microseconds. The density-phase engine steps at
min(dt, its stability bound), from the initial state converted with no node
floor. The two sides alternate in --blocks blocks, the base first in even
blocks, so a slow spell of the host falls on both alike. The script prints
each side's median and quartiles over the blocks, the blocks the change won
and whether the change's median is slower at all (a bound of 0), in the
lines of bench_pairs.py, then one JSON line of the same figures; it exits 0
whatever they are, and 1 if a subprocess fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_pairs import report, summarize

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = ROOT / "perfbench" / "workloads" / "engines.ini"
STEPS_PER_BLOCK = 500
METRICS = [{"name": name, "unit": "us", "better": "lower", "bound": 0.0}
           for name in ("cn_step_us", "madelung_step_us")]

# the subprocess: argv is (INI, steps); one JSON line of step times per
# line read from stdin, until stdin closes
CHILD = r"""
import json, sys, time
from edsim import to_hydro
from edsim.config import RunConfig
from edsim.dynamics import _MadelungEngine, _cn_solver, schrodinger_step

cfg = RunConfig.load(sys.argv[1])
steps = int(sys.argv[2])
g, p, psi = cfg.grid(), cfg.params(), cfg.initial_state().normalized()
ecfg = cfg.evolution_configs()[0]
dt = ecfg.dt
md_dt = min(dt, ecfg.stability_limit(g, p))
solver = _cn_solver(g, p, dt)
h0 = to_hydro(psi, node_floor=0.0)
engine = _MadelungEngine(g, p)


def cn():
    state = psi
    start = time.perf_counter()
    for _ in range(steps):
        state = schrodinger_step(state, p, dt, solver)
    return time.perf_counter() - start


def madelung():
    rho, phi = h0.rho, h0.phi
    start = time.perf_counter()
    for _ in range(steps):
        rho, phi, _ = engine.step(rho, phi, md_dt)
    return time.perf_counter() - start


cn(), madelung()
for _ in sys.stdin:
    print(json.dumps({"cn_step_us": cn() / steps * 1e6,
                      "madelung_step_us": madelung() / steps * 1e6}), flush=True)
"""


def start_side(checkout, config, steps):
    """A running subprocess that times steps with checkout's edsim."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    return subprocess.Popen([sys.executable, "-c", CHILD, str(config), str(steps)],
                            cwd=checkout, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)


def time_block(proc, checkout):
    """{step name: mean us a step} of one block in the subprocess proc."""
    proc.stdin.write("\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise SystemExit(f"step timing in {checkout} exited {proc.wait()}")
    return json.loads(line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="the other checkout (its src/ holds edsim)")
    ap.add_argument("--config", type=Path, default=DEFAULT_CONFIG)
    ap.add_argument("--blocks", type=int, default=12)
    args = ap.parse_args(argv)
    config = args.config.resolve()
    sides = [(args.base, []), (ROOT, [])]
    procs = [start_side(checkout, config, STEPS_PER_BLOCK) for checkout, _ in sides]
    try:
        for i in range(args.blocks):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for j in order:
                sides[j][1].append(time_block(procs[j], sides[j][0]))
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()
    rows = summarize(METRICS, sides[0][1], sides[1][1])
    print(f"{config.name}: {args.blocks} blocks of {STEPS_PER_BLOCK} steps, us a step")
    print(report(rows))
    print(json.dumps({"config": str(config), "blocks": args.blocks,
                      "steps": STEPS_PER_BLOCK, **{r["name"]: r for r in rows}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
