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

trajectories keeps every particle's position at every snapshot until it
writes the ensemble file, so a run that would hold more than
MAX_ENSEMBLE_POSITIONS of them (n_particles x snapshots) is refused up
front with exit 2, before anything is evolved or allocated.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import io as iomod
from . import validate as acceptance
from .amplification import end_to_end
from .config import RunConfig
from .dynamics import evolve, l1_distance, madelung_start
from .errors import ConfigError, SimulationError
from .measurement import born_probabilities, device_state, draw_outcomes
from .stats import (
    cdf_from_density,
    chi2_critical,
    chi2_gof,
    ks_critical,
    ks_statistic,
    make_test_record,
)
from .trajectories import SAMPLER_MODES, TraceFields, advance_ensemble, sample_initial

# 1e8 float64 positions are 0.8 GB
MAX_ENSEMBLE_POSITIONS = 10**8


def _resolve_out(args, cfg, required=True):
    out = args.out or os.environ.get("EDSIM_OUT") or (cfg.out_dir() if cfg else "")
    if not out and required:
        raise ConfigError("no output directory: pass --out, set EDSIM_OUT, or set [run] out")
    if out:
        os.makedirs(out, exist_ok=True)
    return out


def _setup(args):
    cfg = RunConfig.load(args.config)
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ConfigError("--seed must fit in an unsigned 64-bit integer")
        cfg.values["run"]["seed"] = str(args.seed)
    out = _resolve_out(args, cfg)
    iomod.atomic_write(os.path.join(out, "resolved.ini"), cfg.resolved_ini())
    return cfg, out


def cmd_evolve(args) -> int:
    cfg, out = _setup(args)
    g = cfg.grid()
    p = cfg.params()
    psi = cfg.initial_state()
    requested = cfg.values["evolution"]["engine"]
    engines = ("schrodinger", "madelung") if requested == "both" else (requested,)
    ecfgs = {eng: cfg.evolution_config(engine=eng) for eng in engines}
    # every engine's up-front checks pass before any engine takes a step
    start = (madelung_start(psi, p, ecfgs["madelung"], cfg.node_floor())
             if "madelung" in ecfgs else None)
    fields = {}
    for eng, ecfg in ecfgs.items():
        trace = evolve(psi, p, ecfg, node_floor=cfg.node_floor(),
                       start=start if eng == "madelung" else None)
        fields[eng] = trace.field_arrays()
        iomod.write_snapshots(os.path.join(out, f"trace_{eng}.ndjson"), g, *fields[eng])
        iomod.write_diagnostics(os.path.join(out, f"diagnostics_{eng}.csv"), trace.diagnostics)
    if len(fields) == 2:
        ts, r_s, _ = fields["schrodinger"]
        _, r_m, _ = fields["madelung"]
        l1s = [l1_distance(a, b, g.dx) for a, b in zip(r_s, r_m)]
        iomod.write_compare_csv(os.path.join(out, "compare_l1.csv"), ts, l1s)
    return 0


def cmd_trajectories(args) -> int:
    cfg, out = _setup(args)
    g = cfg.grid()
    p = cfg.params()
    n_particles = cfg._int("sampler", "n_particles")
    if n_particles < 2:
        raise ConfigError("[sampler] n_particles must be at least 2")
    sdt = cfg._float("sampler", "dt")
    if not (np.isfinite(sdt) and sdt >= 0):
        raise ConfigError(
            f"[sampler] dt must be finite and non-negative (0: the evolution dt), got {sdt:g}")
    requested = cfg.values["evolution"]["engine"]
    # particles read fields from one trace; the wavefunction engine is the
    # reference when the config asks for both
    ecfg = cfg.evolution_config(engine="schrodinger" if requested == "both" else requested)
    snapshots = ecfg.n_snapshots()
    if n_particles * snapshots > MAX_ENSEMBLE_POSITIONS:
        raise ConfigError(
            f"[sampler] n_particles x snapshots = {n_particles} x {snapshots} exceeds "
            f"the limit of {MAX_ENSEMBLE_POSITIONS:g} stored positions")
    trace = evolve(cfg.initial_state(), p, ecfg, node_floor=cfg.node_floor())
    fields = TraceFields.from_trace(trace, p)
    ts, rhos = fields.ts, fields.rhos
    sdt = sdt or ecfg.dt
    for k in range(1, len(ts)):
        span = float(ts[k] - ts[k - 1])
        if abs(round(span / sdt) * sdt - span) > 1e-9 or span < sdt / 2:
            raise ConfigError(
                f"sampler dt {sdt:g} does not divide the snapshot interval {span:g}")
    requested_mode = cfg.values["sampler"]["mode"]
    modes = SAMPLER_MODES if requested_mode == "both" else (requested_mode,)
    final_cdf = cdf_from_density(g, rhos[-1])
    for mode in modes:
        ens = sample_initial(rhos[0], g, n_particles, cfg.seed())
        times, positions = [ens.t], [ens.positions]
        for t in ts[1:]:
            ens = advance_ensemble(
                ens, fields, sdt, mode, p, boundary=ecfg.boundary,
                node_floor=cfg.node_floor(), t_target=float(t))
            times.append(ens.t)
            positions.append(ens.positions)
        iomod.write_ensemble_csv(os.path.join(out, f"ensemble_{mode}.csv"), times, positions)
        d = ks_statistic(ens.positions, final_cdf)
        crit = ks_critical(n_particles)
        iomod.write_test_record(
            os.path.join(out, f"ks_{mode}.json"),
            make_test_record(f"ks_{mode}", d, crit, n_particles, bool(d < crit)))
    return 0


def cmd_measure(args) -> int:
    cfg, out = _setup(args)
    g = cfg.grid()
    dev = cfg.device(g)
    if dev.dim != g.n:
        raise ConfigError(f"device dimension {dev.dim} must equal grid n {g.n}")
    psi_dev = device_state(cfg.initial_state())
    probs = born_probabilities(dev, psi_dev)
    n_trials = cfg._int("device", "n_trials")
    if n_trials < 1:
        raise ConfigError("[device] n_trials must be positive")
    outcomes = draw_outcomes(
        dev, psi_dev, n_trials, cfg.seed(), method=cfg.values["device"]["method"])
    iomod.write_outcomes_csv(os.path.join(out, "outcomes.csv"), outcomes, dev)
    iomod.write_device(os.path.join(out, "device.json"), dev)
    iomod.atomic_write(
        os.path.join(out, "born.json"),
        json.dumps({"probabilities": [float(v) for v in probs]}, sort_keys=True) + "\n")
    counts = np.bincount(outcomes, minlength=dev.dim)
    stat, _ = chi2_gof(counts, probs)
    crit = chi2_critical(dev.dim - 1)
    iomod.write_test_record(
        os.path.join(out, "chi2.json"),
        make_test_record("chi2_born", stat, crit, n_trials, bool(stat < crit)))
    return 0


def cmd_amplify(args) -> int:
    cfg, out = _setup(args)
    g = cfg.grid()
    dev = cfg.device(g)
    if dev.dim != g.n:
        raise ConfigError(f"device dimension {dev.dim} must equal grid n {g.n}")
    psi_dev = device_state(cfg.initial_state())
    like = cfg.likelihood(dev)
    prior = cfg.prior(dev, psi_dev)
    n_trials = cfg._int("amplify", "n_trials")
    if n_trials < 1:
        raise ConfigError("[amplify] n_trials must be positive")
    log = end_to_end(psi_dev, dev, like, n_trials, cfg.seed(), prior=prior)
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
    if cfg is not None:
        dt_override = cfg._float("validate", "madelung_dt")
        if not (np.isfinite(dt_override) and dt_override >= 0):
            raise ConfigError(
                "[validate] madelung_dt must be finite and non-negative "
                f"(0: the default step), got {dt_override:g}")
        if dt_override > 0:
            overrides["madelung_dt"] = dt_override
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
