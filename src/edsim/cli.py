"""Command-line front end.

Five subcommands: evolve, trajectories, measure, amplify, validate. Every
run archives the fully-resolved configuration next to its outputs, so a
result directory is self-describing; rerunning with the same config and
seed reproduces every file byte for byte.

Exit codes:
    0  success
    1  unexpected internal error
    2  configuration problem (bad file, unknown key, bad CLI usage)
    3  domain failure (node hit, instability, bad device, zero evidence, ...)
    4  filesystem problem
    5  validate ran and at least one criterion failed

Errors are reported as a single JSON line on stderr: {"error": ..., "message": ...}.

Config values are read and checked through RunConfig (edsim.config); this
module checks only what needs more than the config. Memory is bounded up
front, with exit 2 before the initial state is built: a trace may hold at
most MAX_TRACE_VALUES values (snapshots x cells), and the [sampler]
n_particles rule keeps an ensemble below MAX_PARTICLES particles. trajectories
writes each snapshot's rows as the ensemble reaches it and holds only the
current positions, so its memory does not grow with the snapshot count.
Two jobs can run at once in a forked worker (_run_modes): with
trajectories' mode = both the second sampler mode, which holds its own
ensemble, and with evolve's engine = both the Madelung engine, which holds
its own trace and sends back only its densities. Either limit then holds
per process.
"""

import argparse
import json
import math
import os
import pickle
import signal
import sys

import numpy as np

from . import io as iomod
from . import validate as acceptance
from .amplification import end_to_end
from .config import RunConfig
from .dynamics import evolve, l1_distance, madelung_start
from .errors import ConfigError, SimulationError
from .measurement import born_probabilities, device_state, draw_outcomes
from .stats import (  # chi2_gof stays a cli name: perfbench/tracer.py patches it
    cdf_from_density,
    chi2_critical,
    chi2_gof,
    ks_critical,
    ks_statistic,
    make_test_record,
    pearson_statistic,
)
from .trajectories import SAMPLER_MODES, TraceFields, advance_ensemble, sample_initial

# a trace keeps (rho, phi) per snapshot cell, and its field arrays and
# drift tables two more pairs: up to 48 bytes a value, 0.48 GB at 1e7
MAX_TRACE_VALUES = 10**7


def _resolve_out(args, cfg, required=True):
    out = args.out or os.environ.get("EDSIM_OUT") or (cfg["run", "out"] if cfg else "")
    if not out and required:
        raise ConfigError("no output directory: pass --out, set EDSIM_OUT, or set [run] out")
    if out:
        os.makedirs(out, exist_ok=True)
    return out


def _setup(args):
    cfg = RunConfig.load(args.config, seed=args.seed)
    out = _resolve_out(args, cfg)
    iomod.atomic_write(os.path.join(out, "resolved.ini"), cfg.resolved_ini())
    return cfg, out


def _check_trace(g, ecfg):
    snapshots = ecfg.n_snapshots()
    if snapshots * g.n > MAX_TRACE_VALUES:
        raise ConfigError(
            f"snapshots x cells = {snapshots:g} x {g.n:g} exceeds the limit of "
            f"{MAX_TRACE_VALUES:g} trace values")


def cmd_evolve(args) -> int:
    cfg, out = _setup(args)
    g = cfg.grid()
    requested = cfg["evolution", "engine"]
    engines = ("schrodinger", "madelung") if requested == "both" else (requested,)
    ecfgs = {eng: cfg.evolution_config(engine=eng) for eng in engines}
    _check_trace(g, ecfgs[engines[0]])
    p = cfg.params()
    psi = cfg.initial_state()
    node_floor = cfg["evolution", "node_floor"]
    # every engine's up-front checks pass before any engine takes a step
    start = (madelung_start(psi, p, ecfgs["madelung"], node_floor)
             if "madelung" in ecfgs else None)

    def run_engine(eng):
        # each engine writes only its own files, so the engines may run in
        # either process; only the densities come back, for compare_l1.csv
        trace = evolve(psi, p, ecfgs[eng], node_floor=node_floor,
                       start=start if eng == "madelung" else None)
        ts, rhos, phis = trace.field_arrays()
        iomod.write_snapshots(os.path.join(out, f"trace_{eng}.ndjson"), g, ts, rhos, phis)
        iomod.write_diagnostics(os.path.join(out, f"diagnostics_{eng}.csv"), trace.diagnostics)
        return ts, rhos

    results = _run_modes(run_engine, engines)
    if len(results) == 2:
        (ts, r_s), (_, r_m) = results
        l1s = [l1_distance(a, b, g.dx) for a, b in zip(r_s, r_m)]
        iomod.write_compare_csv(os.path.join(out, "compare_l1.csv"), ts, l1s)
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_modes(run, modes):
    """[run(mode) for mode in modes], with the outcome of running them in order.

    With two modes, os.fork and at least two usable CPUs, the first mode
    runs in this process while the second runs in one forked worker;
    otherwise every mode runs here, one after the other. The worker sends
    its pickled (value, None) or (None, exception) back over a pipe and
    always ends with os._exit, and this process always reaps it, also when
    the first mode fails. Errors keep mode order: the first mode's error,
    else the worker's, else a RuntimeError naming how the worker died.
    """
    if len(modes) < 2 or not hasattr(os, "fork") or _usable_cpus() < 2:
        return [run(mode) for mode in modes]
    first, second = modes
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            try:
                result = (run(second), None)
            except BaseException as e:  # re-raised by the parent
                result = (None, e)
            with open(wfd, "wb") as fh:
                pickle.dump(result, fh)
            status = 0
        finally:
            # never return into the caller's frames: no atexit hooks, and no
            # second flush of output buffered before the fork
            os._exit(status)
    os.close(wfd)
    try:
        value = run(first)
    finally:
        with open(rfd, "rb") as fh:
            report = fh.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        raise RuntimeError(
            f"the {second} worker was killed by signal {-code} ({signal.strsignal(-code)})")
    if code:
        raise RuntimeError(f"the {second} worker exited with status {code} and no result")
    second_value, error = pickle.loads(report)
    if error is not None:
        raise error
    return [value, second_value]


def cmd_trajectories(args) -> int:
    cfg, out = _setup(args)
    g = cfg.grid()
    n_particles = cfg["sampler", "n_particles"]
    sdt = cfg["sampler", "dt"]
    requested = cfg["evolution", "engine"]
    # particles read fields from one trace; the wavefunction engine is the
    # reference when the config asks for both
    ecfg = cfg.evolution_config(engine="schrodinger" if requested == "both" else requested)
    _check_trace(g, ecfg)
    p = cfg.params()
    node_floor, seed = cfg["evolution", "node_floor"], cfg["run", "seed"]
    fields = TraceFields.from_trace(evolve(cfg.initial_state(), p, ecfg, node_floor=node_floor), p)
    ts, rhos = fields.ts, fields.rhos
    sdt = sdt or ecfg.dt
    for k in range(1, len(ts)):
        span = float(ts[k] - ts[k - 1])
        if abs(round(span / sdt) * sdt - span) > 1e-9 or span < sdt / 2:
            raise ConfigError(
                f"sampler dt {sdt:g} does not divide the snapshot interval {span:g}")
    requested_mode = cfg["sampler", "mode"]
    modes = SAMPLER_MODES if requested_mode == "both" else (requested_mode,)
    final_cdf = cdf_from_density(g, rhos[-1])

    def run_mode(mode):
        # each mode draws its own stream from the seed, so the modes are
        # independent and may run in either process
        ens = sample_initial(rhos[0], g, n_particles, seed)

        def snapshots():
            # only the current ensemble is held: each snapshot's rows are
            # written before the next advance starts
            nonlocal ens
            yield ens.t, ens.positions
            for t in ts[1:]:
                ens = advance_ensemble(
                    ens, fields, sdt, mode, boundary=ecfg.boundary,
                    node_floor=node_floor, t_target=float(t))
                yield ens.t, ens.positions

        iomod.write_ensemble_csv(os.path.join(out, f"ensemble_{mode}.csv"), snapshots())
        d = ks_statistic(ens.positions, final_cdf)
        crit = ks_critical(n_particles)
        iomod.write_test_record(
            os.path.join(out, f"ks_{mode}.json"),
            make_test_record(f"ks_{mode}", d, crit, n_particles, bool(d < crit)))

    try:
        _run_modes(run_mode, modes)
    except BaseException:
        # a worker killed by a signal mid-stream leaves its temp file behind
        for mode in modes:
            iomod.remove_temps(os.path.join(out, f"ensemble_{mode}.csv"))
        raise
    return 0


def cmd_measure(args) -> int:
    cfg, out = _setup(args)
    n_trials = cfg["device", "n_trials"]
    g = cfg.grid()
    dev = cfg.device(g)
    psi_dev = device_state(cfg.initial_state())
    probs = born_probabilities(dev, psi_dev)
    outcomes = draw_outcomes(probs, n_trials, cfg["run", "seed"])
    iomod.write_outcomes_csv(os.path.join(out, "outcomes.csv"), outcomes, dev)
    iomod.write_device(os.path.join(out, "device.json"), dev)
    iomod.atomic_write(
        os.path.join(out, "born.json"),
        json.dumps({"probabilities": [float(v) for v in probs]}, sort_keys=True) + "\n")
    counts = np.bincount(outcomes, minlength=dev.dim)
    stat = pearson_statistic(counts, probs)
    # zero-probability cells are out of the sum and of the degrees of freedom
    dof = np.count_nonzero(probs) - 1
    crit = chi2_critical(dof)
    # at dof 0 every draw lands in the one positive cell: the statistic is 0
    # up to rounding, which would fail against the 0.0 point, and is inf
    # only for a draw in a zero-probability cell
    passed = stat < crit if dof else math.isfinite(stat)
    iomod.write_test_record(
        os.path.join(out, "chi2.json"),
        make_test_record("chi2_born", stat, crit, n_trials, bool(passed)))
    return 0


def cmd_amplify(args) -> int:
    cfg, out = _setup(args)
    n_trials = cfg["amplify", "n_trials"]
    g = cfg.grid()
    dev = cfg.device(g)
    psi_dev = device_state(cfg.initial_state())
    like = cfg.likelihood(dev)
    log = end_to_end(psi_dev, dev, like, n_trials, cfg["run", "seed"], prior=cfg.prior(dev.dim))
    iomod.write_experiment_log(os.path.join(out, "experiment.ndjson"), log)
    iomod.write_likelihood_csv(os.path.join(out, "likelihood.csv"), like)
    summary = {
        "n_trials": n_trials,
        "n_pointers": like.n_pointers,
        "error_rate": log.error_rate,
    }
    iomod.atomic_write(
        os.path.join(out, "summary.json"), json.dumps(summary, sort_keys=True) + "\n")
    return 0


def cmd_validate(args) -> int:
    cfg = RunConfig.load(args.config) if args.config else None
    overrides = {}
    if cfg is not None and cfg["validate", "madelung_dt"] > 0:
        overrides["madelung_dt"] = cfg["validate", "madelung_dt"]
    names = acceptance.select_criteria(args.filter) if args.filter else None
    results = acceptance.run_all(names, overrides)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    print("\n".join(lines))
    out = _resolve_out(args, cfg, required=False)
    if out:
        if cfg is not None:
            iomod.atomic_write(os.path.join(out, "resolved.ini"), cfg.resolved_ini())
        iomod.atomic_write(os.path.join(out, "validation.txt"), "\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 5


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="edsim",
        description="1D quantum dynamics: two engines, particle trajectories, "
                    "measurement devices, pointer amplification.")
    sub = ap.add_subparsers(dest="command", required=True)
    specs = (
        ("evolve", cmd_evolve, "integrate the configured state and write snapshots"),
        ("trajectories", cmd_trajectories, "sample particle paths through an evolved density"),
        ("measure", cmd_measure, "apply a measurement device and tally outcomes"),
        ("amplify", cmd_amplify, "run pointer amplification and Bayesian readout"),
        ("validate", cmd_validate, "run the acceptance criteria"),
    )
    for name, fn, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=(name != "validate"),
                        help="INI run configuration")
        sp.add_argument("--out", help="output directory (overrides EDSIM_OUT and [run] out)")
        sp.add_argument("--seed", type=int, help="override [run] seed")
        if name == "validate":
            sp.add_argument("--filter", help="comma-separated criterion names or substrings")
        sp.set_defaults(func=fn)
    return ap


def _report(e) -> None:
    print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        _report(e)
        return 2
    except SimulationError as e:
        _report(e)
        return 3
    except OSError as e:
        _report(e)
        return 4
    except Exception as e:  # pragma: no cover - safety net
        _report(e)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
