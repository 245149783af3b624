"""Command-line front end.

Five subcommands: evolve, trajectories, measure, amplify, validate. Every
run but validate, whose criteria pin their own configs and seeds, archives
the fully-resolved configuration next to its outputs; rerunning with the
same config and seed reproduces every file byte for byte.

Exit codes:
    0  success
    1  unexpected internal error
    2  configuration problem (bad file, unknown key, bad CLI usage)
    3  domain failure (node hit, instability, bad device, zero evidence, ...)
    4  filesystem problem
    5  validate ran and at least one criterion failed

Errors are reported as a single JSON line on stderr: {"error": ..., "message": ...},
plus "stage" (the engine, or the sampler mode), "step" and "t" for a failure
at a known step of evolve or of trajectories' ensemble advance.

Config values are read and checked through RunConfig (edsim.config), which
also states the run plan: the engines and sampler laws a run uses, and the
rules that join keys. This module sequences the stages and checks only what
needs more than the config. Memory is bounded up front, with exit 2 before
the initial state is built, by the four caps that edsim.config states:
MAX_TRACE_VALUES, MAX_PARTICLES, MAX_TRIALS and MAX_DEVICE_DIM. trajectories
writes each snapshot's rows as the ensemble reaches it and holds only the
current positions, so its memory does not grow with the snapshot count.
Two jobs run at once, the second in a forked worker (_run_modes): with
trajectories' mode = both the second sampler mode, which holds its own
ensemble, and with evolve's engine = both the Madelung engine, which holds
its own trace and sends back only its densities. Either cap then holds per
process. The CLI forks whenever it has two jobs, whatever the CPU count:
pinned to one CPU, forking cost trajectories 1-7% of its wall time on the
perfbench particles set-up and cost evolve nothing measurable on the
engines set-up. Without os.fork both jobs run here, one after the other.
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
from .trajectories import TraceFields, advance_ensemble, sample_initial


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


def cmd_evolve(args) -> int:
    cfg, out = _setup(args)
    g = cfg.grid()
    ecfgs = {ecfg.engine: ecfg for ecfg in cfg.evolution_configs()}
    p = cfg.params()
    psi = cfg.initial_state()
    # every engine's up-front checks pass before any engine takes a step
    if "madelung" in ecfgs:
        madelung_start(psi, p, ecfgs["madelung"])

    def run_engine(eng):
        # each engine writes only its own files, so the engines may run in
        # either process; only the densities come back, for compare_l1.csv
        trace = evolve(psi, p, ecfgs[eng])
        ts, rhos, phis = trace.field_arrays()
        iomod.write_snapshots(os.path.join(out, f"trace_{eng}.ndjson"), g, ts, rhos, phis)
        iomod.write_diagnostics(os.path.join(out, f"diagnostics_{eng}.csv"), trace.diagnostics)
        return ts, rhos

    results = _run_modes(run_engine, tuple(ecfgs))
    if len(results) == 2:
        (ts, r_s), (_, r_m) = results
        l1s = [l1_distance(a, b, g.dx) for a, b in zip(r_s, r_m)]
        iomod.write_compare_csv(os.path.join(out, "compare_l1.csv"), ts, l1s)
    return 0


def _run_modes(run, modes):
    """[run(mode) for mode in modes], with the outcome of running them in order.

    With two modes and os.fork, the first mode runs in this process while
    the second runs in one forked worker; with one mode, or without
    os.fork, every mode runs here, one after the other, and a first-mode
    error stops the second. The worker sends its pickled (value, None) or
    (None, exception) back over a pipe and always ends with os._exit, and
    this process always reaps it, also when the first mode fails. Errors
    keep mode order: the first mode's error, else the worker's, else a
    RuntimeError naming how the worker died.
    """
    if len(modes) < 2 or not hasattr(os, "fork"):
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
    # particles read fields from one trace: the first engine's, CN for both
    ecfg = cfg.evolution_configs()[0]
    p = cfg.params()
    sdt = cfg.sampler_dt(ecfg)
    fields = TraceFields.from_trace(evolve(cfg.initial_state(), p, ecfg))
    ts, rhos, seed = fields.ts, fields.rhos, cfg["run", "seed"]
    modes = cfg.sampler_modes()
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
                ens = advance_ensemble(ens, fields, sdt, mode, t_target=float(t))
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
    dev = cfg.device(cfg.grid())
    psi_dev = device_state(cfg.initial_state())
    probs = born_probabilities(dev, psi_dev)
    outcomes = draw_outcomes(probs, n_trials, cfg["run", "seed"])
    iomod.write_outcomes_csv(os.path.join(out, "outcomes.csv"), outcomes, dev)
    iomod.write_device(os.path.join(out, "device.json"), dev)
    iomod.atomic_write(os.path.join(out, "born.json"),
                       json.dumps({"probabilities": probs.tolist()}) + "\n")
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
    dev = cfg.device(cfg.grid())
    psi_dev = device_state(cfg.initial_state())
    like = cfg.likelihood(dev)
    log = end_to_end(psi_dev, dev, like, n_trials, cfg["run", "seed"], prior=cfg.prior(dev.dim))
    iomod.write_experiment_log(os.path.join(out, "experiment.ndjson"), log)
    iomod.write_posteriors(os.path.join(out, "posteriors.ndjson"), log)
    iomod.write_likelihood_csv(os.path.join(out, "likelihood.csv"), like)
    summary = {"n_trials": n_trials, "n_pointers": like.n_pointers, "error_rate": log.error_rate}
    iomod.atomic_write(
        os.path.join(out, "summary.json"), json.dumps(summary, sort_keys=True) + "\n")
    return 0


def cmd_validate(args) -> int:
    names = None if args.filter is None else acceptance.select_criteria(args.filter)
    results = acceptance.run_all(names)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    print("\n".join(lines))
    out = _resolve_out(args, None, required=False)
    if out:
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
        sp.add_argument("--out", help="output directory (overrides EDSIM_OUT and [run] out)")
        if name == "validate":
            sp.add_argument("--filter", help="comma-separated criterion names or substrings")
        else:
            sp.add_argument("--config", required=True, help="INI run configuration")
            sp.add_argument("--seed", type=int, help="override [run] seed")
        sp.set_defaults(func=fn)
    return ap


def _report(e) -> None:
    where = e.context() if isinstance(e, SimulationError) else {}
    print(json.dumps({"error": type(e).__name__, "message": str(e), **where}), file=sys.stderr)


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
