#!/usr/bin/env python3
"""Time one Crank-Nicolson step and the density-phase step's two paths against another checkout.

Usage, from any directory:

    python3 scripts/step_bench.py BASE_CHECKOUT [--config INI] [--blocks 12]

Each checkout gets one Python subprocess with PYTHONPATH at its own src. A
subprocess reads the INI (default perfbench/workloads/engines.ini), takes its
grid, physics, initial state and first [evolution] dt, snapshot_stride and
node_floor, builds the CN solver and two density-phase engines once, and
warms them up. The first engine advances as evolve does, with the compiled
kernel where it can be built (madelung_step_us): one snapshot stride in one
call of _MadelungEngine.run, or, in a checkout whose engine has no run, one
stride of step calls. The second is made while dynamics.madelung_kernel
answers None, so it takes the numpy step a host without a C compiler runs
(madelung_numpy_step_us). On each request the subprocess takes
STEPS_PER_BLOCK CN steps, one stride of the first engine and
STEPS_PER_BLOCK steps of the second, each from the initial state, and
answers with the mean time of one step of each in microseconds, and the
stride. The density-phase engines step at min(dt, their stability bound),
from the initial state converted with no node floor. The two sides
alternate in --blocks blocks, the base first in even blocks, so a slow
spell of the host falls on both alike. The script prints each side's
median and quartiles over the blocks, the blocks the change won and
whether the change's median is slower at all (a bound of 0), in the lines
of bench_pairs.py, then one JSON line of the same figures and the stride;
it exits 0 whatever they are, and 1 if a subprocess fails: a stride of the
first engine that fails before its last step (say at the INI's node_floor)
fails its subprocess, since it would time fewer steps than it counts.
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
           for name in ("cn_step_us", "madelung_step_us", "madelung_numpy_step_us")]

# the subprocess: argv is (INI, steps); one JSON line of step times per
# line read from stdin, until stdin closes
CHILD = r"""
import json, sys, time
from unittest import mock
from edsim import dynamics, to_hydro
from edsim.config import RunConfig
from edsim.dynamics import _MadelungEngine, _cn_solver, schrodinger_step

cfg = RunConfig.load(sys.argv[1])
steps = int(sys.argv[2])
g, p, psi = cfg.grid(), cfg.params(), cfg.initial_state().normalized()
ecfg = cfg.evolution_configs()[0]
dt, stride = ecfg.dt, ecfg.snapshot_stride
md_dt = min(dt, ecfg.stability_limit(g, p))
solver = _cn_solver(g, p, dt)
h0 = to_hydro(psi, node_floor=0.0)
engine = _MadelungEngine(g, p)
with mock.patch.object(dynamics, "madelung_kernel", lambda: None):
    numpy_engine = _MadelungEngine(g, p)


def cn():
    state = psi
    start = time.perf_counter()
    for _ in range(steps):
        state = schrodinger_step(state, p, dt, solver)
    return time.perf_counter() - start


def madelung(eng, steps):
    rho, phi = h0.rho, h0.phi
    start = time.perf_counter()
    for _ in range(steps):
        rho, phi, _ = eng.step(rho, phi, md_dt)
    return time.perf_counter() - start


def madelung_stride():
    if not hasattr(engine, "run"):
        return madelung(engine, stride)
    start = time.perf_counter()
    *_, failed = engine.run(h0.rho, h0.phi, md_dt, stride, ecfg.node_floor)
    elapsed = time.perf_counter() - start
    if failed is not None:  # fewer than stride steps ran
        sys.exit(f"the density-phase stride fails at step {failed[0] + 1}: {failed[1]}")
    return elapsed


cn(), madelung_stride(), madelung(numpy_engine, steps)
for _ in sys.stdin:
    print(json.dumps({"cn_step_us": cn() / steps * 1e6,
                      "madelung_step_us": madelung_stride() / stride * 1e6,
                      "madelung_numpy_step_us": madelung(numpy_engine, steps) / steps * 1e6,
                      "stride": stride}),
          flush=True)
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
    stride = sides[1][1][0]["stride"]
    print(f"{config.name}: {args.blocks} blocks of {STEPS_PER_BLOCK} steps "
          f"and one {stride}-step stride, us a step")
    print(report(rows))
    print(json.dumps({"config": str(config), "blocks": args.blocks, "steps": STEPS_PER_BLOCK,
                      "stride": stride, **{r["name"]: r for r in rows}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
