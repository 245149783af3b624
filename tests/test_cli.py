"""End-to-end checks of the command line driver, run in-process."""

import csv
import importlib
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edsim import (
    NodeError,
    build_device,
    chi2_critical,
    cli,
    config,
    dynamics,
    fourier_device,
    noisy_likelihood,
)
import edsim.io as iomod
from edsim.io import (
    device_file_bound,
    likelihood_file_bound,
    read_snapshots,
    write_compare_csv,
    write_device,
    write_likelihood_csv,
)
from edsim.trajectories import ENTROPIC_DIFFUSION, SAMPLER_MODES
from oracles import dense_copy, join_experiment_log

ROOT = Path(__file__).resolve().parents[1]

DEFAULTS = {
    "grid": {"x_min": -8, "x_max": 8, "n": 64},
    "initial": {"preset": "gaussian", "mu": -1, "k": 1},
    "evolution": {"dt": "1e-3", "t_final": 0.01, "snapshot_stride": 5},
    "sampler": {"mode": "current_flow", "n_particles": 200},
    "device": {"n_trials": 2000},
    "amplify": {"epsilon": 0.1, "n_trials": 500},
    "run": {"seed": 3},
}

# the keys of every JSON error line, and the three that a failure at a known
# step of evolve adds
ERROR_KEYS = {"error", "message"}
STEP_KEYS = {"stage", "step", "t"}


@pytest.fixture
def ini(tmp_path):
    counter = itertools.count()

    def make(**overrides):
        """Write a config file; override keys as section__key=value."""
        sections = {s: dict(kv) for s, kv in DEFAULTS.items()}
        for dotted, val in overrides.items():
            sect, key = dotted.split("__")
            sections.setdefault(sect, {})[key] = val
        chunks = []
        for sect, kv in sections.items():
            chunks.append(f"[{sect}]")
            chunks.extend(f"{k} = {v}" for k, v in kv.items())
            chunks.append("")
        p = tmp_path / f"run{next(counter)}.ini"
        p.write_text("\n".join(chunks))
        return str(p)

    return make


def run(*argv):
    return cli.main(list(argv))


def listdir(d):
    return sorted(f.name for f in d.iterdir())


def test_evolve_single_engine(ini, tmp_path):
    out = tmp_path / "out"
    assert run("evolve", "--config", ini(), "--out", str(out)) == 0
    assert listdir(out) == [
        "diagnostics_schrodinger.csv",
        "resolved.ini",
        "trace_schrodinger.ndjson",
    ]
    snaps = read_snapshots(out / "trace_schrodinger.ndjson")
    assert [t for t, *_ in snaps] == pytest.approx([0.0, 0.005, 0.01])
    with open(out / "diagnostics_schrodinger.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert float(rows[-1]["norm"]) == pytest.approx(1.0, abs=1e-12)


def test_evolve_both_engines(ini, tmp_path):
    out = tmp_path / "out"
    cfg = ini(evolution__engine="both", evolution__node_floor=0)
    assert run("evolve", "--config", cfg, "--out", str(out)) == 0
    assert listdir(out) == [
        "compare_l1.csv",
        "diagnostics_madelung.csv",
        "diagnostics_schrodinger.csv",
        "resolved.ini",
        "trace_madelung.ndjson",
        "trace_schrodinger.ndjson",
    ]
    with open(out / "compare_l1.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert float(rows[0]["l1"]) == 0.0  # engines share the initial density
    assert all(float(r["l1"]) < 1e-2 for r in rows)


def test_trajectories(ini, tmp_path):
    out = tmp_path / "out"
    assert run("trajectories", "--config", ini(), "--out", str(out)) == 0
    assert listdir(out) == [
        "ensemble_current_flow.csv",
        "ks_current_flow.json",
        "resolved.ini",
    ]
    with open(out / "ensemble_current_flow.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 200 * 3  # every particle at every snapshot time
    ts = sorted({float(r["t"]) for r in rows})
    assert ts == pytest.approx([0.0, 0.005, 0.01], abs=1e-12)
    rec = json.loads((out / "ks_current_flow.json").read_text())
    assert rec["test"] == "ks_current_flow"
    assert rec["n"] == 200
    assert isinstance(rec["pass"], bool)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers that os.fork makes during the test."""
    pids = []
    real = os.fork

    def counted():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("seed", [3, 17])
def test_both_modes_match_single_mode_runs(seed, forks, ini, tmp_path):
    """mode = both runs the second mode in one forked worker, and writes
    each mode's ensemble and KS record byte for byte as a run of that mode
    alone does."""
    both = tmp_path / "both"
    assert run("trajectories", "--config", ini(sampler__mode="both"),
               "--out", str(both), "--seed", str(seed)) == 0
    assert len(forks) == 1
    assert_no_child_left()
    assert listdir(both) == sorted(
        ["resolved.ini"] + [f"{kind}_{m}.{ext}" for m in SAMPLER_MODES
                            for kind, ext in (("ensemble", "csv"), ("ks", "json"))])
    for mode in SAMPLER_MODES:
        single = tmp_path / mode
        assert run("trajectories", "--config", ini(sampler__mode=mode),
                   "--out", str(single), "--seed", str(seed)) == 0
        for name in (f"ensemble_{mode}.csv", f"ks_{mode}.json"):
            assert (both / name).read_bytes() == (single / name).read_bytes()
    assert len(forks) == 1


@pytest.mark.parametrize("case, code, error", [
    # the floor trips on the entropic_diffusion tails; current_flow has no check
    ("node_error", 3, "NodeError"),
    # a directory where the ensemble file's rename lands
    ("squatter", 4, "IsADirectoryError"),
    # both modes fail: the first mode's error is the one reported
    ("both_fail", 4, "IsADirectoryError"),
])
@needs_fork
def test_worker_errors_match_inline(case, code, error, forks, ini, tmp_path, capsys):
    """An error in either mode of a forked mode = both run gives the exit
    code and JSON stderr line of the failing mode run alone, in-process. The
    files of a mode that finished stay, and no temp file and no child
    process is left behind."""
    floor = {"evolution__node_floor": 0.05} if case != "squatter" else {}
    squat = {"node_error": None, "squatter": ENTROPIC_DIFFUSION,
             "both_fail": "current_flow"}[case]
    failing = "current_flow" if case == "both_fail" else ENTROPIC_DIFFUSION
    seen = {}
    for mode in ("both", failing):
        out = tmp_path / mode
        out.mkdir()
        if squat:
            (out / f"ensemble_{squat}.csv").mkdir()
        assert run("trajectories", "--config", ini(sampler__mode=mode, **floor),
                   "--out", str(out)) == code
        assert_no_child_left()
        assert not list(out.glob("*.tmp"))
        err = capsys.readouterr().err.replace(str(out), "<out>")
        assert json.loads(err)["error"] == error
        # the temp file's name is random in each run
        seen[mode] = re.sub(r"\.\w+\.tmp'", ".<tmp>'", err)
    assert seen["both"] == seen[failing]
    finished = [] if case == "both_fail" else ["ensemble_current_flow.csv", "ks_current_flow.json"]
    assert listdir(tmp_path / "both") == sorted(
        ["resolved.ini"] + finished + ([f"ensemble_{squat}.csv"] if squat else []))
    assert len(forks) == 1


@needs_fork
def test_sampler_errors_carry_their_step(forks, ini, tmp_path, capsys):
    """A sampler step that fails mid-run exits 3 with the mode, the step
    (counted from 1) and its t as the JSON line's stage, step and t: through
    the forked worker of mode = both and in a run of that mode alone."""
    seen = {}
    for mode in ("both", ENTROPIC_DIFFUSION):
        cfg = ini(sampler__mode=mode, evolution__node_floor="1e-3")
        assert run("trajectories", "--config", cfg, "--out", str(tmp_path / mode)) == 3
        err = capsys.readouterr().err
        line = json.loads(err)
        assert set(line) == ERROR_KEYS | STEP_KEYS
        assert line["error"] == "NodeError" and "(t=0.007)" in line["message"]
        assert (line["stage"], line["step"], line["t"]) == (ENTROPIC_DIFFUSION, 7, 7 * 1e-3)
        seen[mode] = err
    assert seen["both"] == seen[ENTROPIC_DIFFUSION]
    assert len(forks) == 1
    assert_no_child_left()


@needs_fork
def test_killed_worker_exits_1_naming_mode_and_signal(forks, monkeypatch, ini, tmp_path, capsys):
    real, runner = cli.advance_ensemble, os.getpid()

    def advance(ens, fields, dt, mode, *args, **kwargs):
        # only ever in a worker: the test runner itself must survive
        if mode == ENTROPIC_DIFFUSION and os.getpid() != runner:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(ens, fields, dt, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "advance_ensemble", advance)
    out = tmp_path / "o"
    assert run("trajectories", "--config", ini(sampler__mode="both"), "--out", str(out)) == 1
    assert len(forks) == 1
    assert_no_child_left()
    assert not list(out.glob("*.tmp"))
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RuntimeError"
    assert ENTROPIC_DIFFUSION in err["message"] and f"signal {int(signal.SIGKILL)}" in err["message"]
    assert listdir(out) == ["ensemble_current_flow.csv", "ks_current_flow.json", "resolved.ini"]


@needs_fork
def test_run_modes_returns_each_value_in_mode_order(forks):
    """A numpy array from each mode comes back bit for bit, in mode order,
    from this process and from the forked worker; one mode runs here."""
    special = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, np.pi]
    values = {"a": np.array(special), "b": np.array(special[::-1]) * -1.0}
    got = cli._run_modes(values.__getitem__, ("a", "b"))
    assert len(forks) == 1
    assert_no_child_left()
    assert [v.tobytes() for v in got] == [values["a"].tobytes(), values["b"].tobytes()]
    assert cli._run_modes(values.__getitem__, ("b",))[0].tobytes() == values["b"].tobytes()
    assert len(forks) == 1


ENGINE_FILES = [f"{kind}_{eng}.{ext}" for eng in ("madelung", "schrodinger")
                for kind, ext in (("diagnostics", "csv"), ("trace", "ndjson"))]


@needs_fork
@pytest.mark.parametrize("boundary", ["periodic", "hardwall"])
def test_engine_both_forked_matches_inline(boundary, forks, ini, tmp_path):
    """engine = both, with the Madelung engine in one forked worker, writes
    each engine's files byte for byte as a run of that engine alone does,
    in-process, and compare_l1.csv as the L1 distances between the two
    single-engine traces."""
    overrides = dict(evolution__node_floor=0, evolution__boundary=boundary)
    both = tmp_path / "both"
    assert run("evolve", "--config", ini(evolution__engine="both", **overrides),
               "--out", str(both)) == 0
    assert len(forks) == 1
    assert_no_child_left()
    assert listdir(both) == sorted(["compare_l1.csv", "resolved.ini"] + ENGINE_FILES)
    rhos = {}
    for eng in ("schrodinger", "madelung"):
        cfg = ini(evolution__engine=eng, **overrides)
        single = tmp_path / eng
        assert run("evolve", "--config", cfg, "--out", str(single)) == 0
        for name in (f"trace_{eng}.ndjson", f"diagnostics_{eng}.csv"):
            assert (both / name).read_bytes() == (single / name).read_bytes()
        snaps = read_snapshots(single / f"trace_{eng}.ndjson")
        ts, rhos[eng] = [t for t, *_ in snaps], [rho for _, _, rho, _ in snaps]
    assert len(forks) == 1
    dx = config.RunConfig.load(cfg).grid().dx
    l1s = [dynamics.l1_distance(a, b, dx) for a, b in zip(rhos["schrodinger"], rhos["madelung"])]
    write_compare_csv(tmp_path / "compare_l1.csv", ts, l1s)
    assert (both / "compare_l1.csv").read_bytes() == (tmp_path / "compare_l1.csv").read_bytes()


@pytest.mark.parametrize("overrides, error, t", [
    # the initial tail (3.1e-18) clears the floor; the first step clips it to 0
    ({"evolution__node_floor": "1e-18"}, "NodeError", 1e-3),
    # four steps inside the dt bound that renormalize by 2.68, 0.64, 8.1, 1.8e12
    ({"grid__n": 8, "initial__mu": 0.6, "initial__sigma": 0.6, "initial__k": 0.0988,
      "evolution__dt": 0.3952, "evolution__t_final": 1.5808,
      "evolution__snapshot_stride": 1, "evolution__node_floor": 0}, "StabilityError", 0.3952),
], ids=["node_floor", "blow_up"])
@needs_fork
def test_madelung_errors_match_inline(overrides, error, t, forks, ini, tmp_path, capsys):
    """A Madelung failure mid-run in the forked worker gives the exit 3 and
    JSON stderr line of a Madelung run alone, in-process, with the engine,
    the first step and its t as the line's stage, step and t. The
    Schrodinger engine's files stay, and no temp file and no child process
    is left behind."""
    seen = {}
    for engine in ("both", "madelung"):
        out = tmp_path / engine
        assert run("evolve", "--config", ini(evolution__engine=engine, **overrides),
                   "--out", str(out)) == 3
        assert_no_child_left()
        assert not list(out.glob("*.tmp"))
        err = capsys.readouterr().err
        line = json.loads(err)
        assert line["error"] == error
        assert (line["stage"], line["step"], line["t"]) == ("madelung", 1, t)
        seen[engine] = err
    assert seen["both"] == seen["madelung"]
    assert listdir(tmp_path / "both") == ["diagnostics_schrodinger.csv", "resolved.ini",
                                          "trace_schrodinger.ndjson"]
    assert len(forks) == 1


@needs_fork
def test_killed_madelung_worker_exits_1_naming_engine_and_signal(forks, monkeypatch, ini,
                                                                tmp_path, capsys):
    real, runner = cli.evolve, os.getpid()

    def evolve(psi, p, ecfg, *args, **kwargs):
        # only ever in a worker: the test runner itself must survive
        if ecfg.engine == "madelung" and os.getpid() != runner:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(psi, p, ecfg, *args, **kwargs)

    monkeypatch.setattr(cli, "evolve", evolve)
    out = tmp_path / "o"
    cfg = ini(evolution__engine="both", evolution__node_floor=0)
    assert run("evolve", "--config", cfg, "--out", str(out)) == 1
    assert len(forks) == 1
    assert_no_child_left()
    assert not list(out.glob("*.tmp"))
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RuntimeError"
    assert "madelung" in err["message"] and f"signal {int(signal.SIGKILL)}" in err["message"]
    assert listdir(out) == ["diagnostics_schrodinger.csv", "resolved.ini",
                            "trace_schrodinger.ndjson"]


# per command: the config, the stage function each job calls, the job that
# call's arguments name, the two jobs in order and the first job's last file
NO_FORK_CASES = {
    "trajectories": ({"sampler__mode": "both"}, "advance_ensemble", lambda args: args[3],
                     ("current_flow", ENTROPIC_DIFFUSION), "ks_current_flow.json"),
    "evolve": ({"evolution__engine": "both", "evolution__node_floor": 0}, "evolve",
               lambda args: args[2].engine, ("schrodinger", "madelung"),
               "diagnostics_schrodinger.csv"),
}


@needs_fork
@pytest.mark.parametrize("command", sorted(NO_FORK_CASES))
def test_without_fork_both_jobs_run_here_in_order(command, monkeypatch, ini, tmp_path, capsys):
    """Without os.fork, mode = both and engine = both run both jobs in this
    process, the first to its end before the second starts, and write the
    bytes of a forked run. A first-job error stops the run: exit 4, its JSON
    line, and the second job neither starts nor writes a file."""
    overrides, stage, job_of, (first, second), first_last_file = NO_FORK_CASES[command]
    cfg = ini(**overrides)
    forked, here, stopped = tmp_path / "forked", tmp_path / "here", tmp_path / "stopped"
    assert run(command, "--config", cfg, "--out", str(forked)) == 0
    monkeypatch.delattr(os, "fork")
    real, jobs = getattr(cli, stage), []

    def recorded(*args, **kwargs):
        jobs.append(job_of(args))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, stage, recorded)
    assert run(command, "--config", cfg, "--out", str(here)) == 0
    assert set(jobs) == {first, second}
    assert jobs == sorted(jobs, key=(first, second).index)  # first ends before second starts
    assert listdir(here) == listdir(forked)
    for name in listdir(here):
        assert (here / name).read_bytes() == (forked / name).read_bytes()
    jobs.clear()
    stopped.mkdir()
    (stopped / first_last_file).mkdir()
    assert run(command, "--config", cfg, "--out", str(stopped)) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IsADirectoryError" and first_last_file in err["message"]
    assert set(jobs) == {first}
    assert not [name for name in listdir(stopped) if second in name]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_one_cpu_child_writes_the_bytes_of_an_unpinned_one(ini, tmp_path):
    """trajectories with mode = both and evolve with engine = both, run as a
    child process pinned to one CPU, write the trees of an unpinned child
    byte for byte; both fork their second job whatever the CPU count. Only
    the child is pinned: preexec_fn runs in it, after the fork and before it
    starts edsim."""
    cpu = min(os.sched_getaffinity(0))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    cases = (("trajectories", ini(sampler__mode="both")),
             ("evolve", ini(evolution__engine="both", evolution__node_floor=0)))
    for command, cfg in cases:
        trees = []
        for pin in (None, lambda: os.sched_setaffinity(0, {cpu})):
            out = tmp_path / f"{command}{len(trees)}"
            proc = subprocess.run(
                [sys.executable, "-m", "edsim.cli", command, "--config", cfg, "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=src), preexec_fn=pin, capture_output=True,
                text=True, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, "")
            trees.append({name: (out / name).read_bytes() for name in listdir(out)})
        assert len(trees[0]) == (5 if command == "trajectories" else 6)
        assert trees[0] == trees[1]


def test_measure(ini, tmp_path):
    out = tmp_path / "out"
    assert run("measure", "--config", ini(), "--out", str(out)) == 0
    assert listdir(out) == [
        "born.json", "chi2.json", "device.json", "outcomes.csv", "resolved.ini",
    ]
    probs = json.loads((out / "born.json").read_text())["probabilities"]
    assert len(probs) == 64
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    with open(out / "outcomes.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2000
    assert json.loads((out / "chi2.json").read_text())["pass"] is True
    assert json.loads((out / "device.json").read_text())["dim"] == 64


def test_amplify(ini, tmp_path):
    out = tmp_path / "out"
    assert run("amplify", "--config", ini(), "--out", str(out)) == 0
    assert listdir(out) == [
        "experiment.ndjson", "likelihood.csv", "posteriors.ndjson", "resolved.ini",
        "summary.json",
    ]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_trials"] == 500
    assert summary["n_pointers"] == 64
    assert 0.0 <= summary["error_rate"] <= 1.0
    trials = [json.loads(line) for line in (out / "experiment.ndjson").read_text().splitlines()]
    assert len(trials) == 500
    assert set(trials[0]) == {"map_i", "observed_r", "row", "trial", "true_i"}
    posteriors = (out / "posteriors.ndjson").read_text().splitlines()
    # one posterior per distinct reading, in ascending order of reading
    readings = sorted({t["observed_r"] for t in trials})
    assert len(posteriors) == len(readings)
    assert all(t["row"] == readings.index(t["observed_r"]) for t in trials)


def test_distinct_readings_counts_the_posteriors(ini, tmp_path, monkeypatch):
    """The benchmark's amplification.distinct_readings, read from the
    "observed_r" keys of experiment.ndjson, is the line count of
    posteriors.ndjson and the count of distinct readings."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    distinct_readings = importlib.import_module("run").distinct_readings
    out = tmp_path / "amplify"
    assert run("amplify", "--config", ini(amplify__epsilon=0.5), "--out", str(out)) == 0
    trials = (out / "experiment.ndjson").read_text().splitlines()
    observed = {json.loads(line)["observed_r"] for line in trials}
    posteriors = (out / "posteriors.ndjson").read_text().splitlines()
    assert 1 < distinct_readings(tmp_path) == len(posteriors) == len(observed)


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert run("evolve", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path / "o")) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "not found" in err["message"]


def test_unknown_key_is_usage_error(ini, tmp_path, capsys):
    assert run("evolve", "--config", ini(grid__nn=3),
               "--out", str(tmp_path / "o")) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


# an hbar whose square overflows, and a box eigenstate on cells 3e198 wide
OVERFLOWING_KINETIC_SCALES = [
    {"physics__hbar": "1e300"},
    {"initial__preset": "eigenstate", "initial__well": "box", "grid__x_min": "-1e200",
     "grid__x_max": "1e200"},
]


@pytest.mark.parametrize("command, overrides", [
    # t_final/dt must be an integer
    ("evolve", {"evolution__dt": "3e-3", "evolution__t_final": 0.01}),
    ("trajectories", {"evolution__dt": "3e-3", "evolution__t_final": 0.01}),
    ("evolve", {"evolution__t_final": -0.01}),
    ("evolve", {"evolution__engine": "spectral"}),
    ("evolve", {"grid__n": 4}),
    ("trajectories", {"sampler__n_particles": 1}),
    ("measure", {"device__n_trials": 0}),
    ("amplify", {"amplify__epsilon": 1.0}),
    # a negative sampler dt never moves the particles; nan cannot count steps
    ("trajectories", {"sampler__dt": "-5e-4"}),
    ("trajectories", {"sampler__dt": "nan"}),
    # nan > 0 is false: a nan floor or step override would be ignored
    ("evolve", {"evolution__engine": "madelung", "evolution__node_floor": "nan"}),
    ("trajectories", {"evolution__node_floor": "inf"}),
    # validate takes no config, so [validate] is no section of one
    ("evolve", {"validate__madelung_dt": "0"}),
    ("trajectories", {"validate__madelung_dt": "1e-4"}),
    # sigma = 0 divides by zero; a non-finite packet writes NaN into JSON
    ("evolve", {"initial__sigma": 0}),
    ("measure", {"initial__sigma": "nan"}),
    ("amplify", {"initial__sigma": -1}),
    ("trajectories", {"initial__mu": "inf"}),
    ("measure", {"initial__k": "nan"}),
    # a packet centred far off the grid underflows to the zero state
    ("measure", {"initial__mu": "1e6"}),
    # level! no longer fits in a float
    ("evolve", {"initial__preset": "eigenstate", "initial__level": 200}),
    # n_particles past MAX_PARTICLES, refused before anything is evolved
    ("trajectories", {"sampler__n_particles": 100000000000}),
    # the outcome draw has one path, so [device] has no method key
    ("measure", {"device__method": "categorical"}),
    # a preset device takes the grid's n, and the dt bound factor is a constant
    ("measure", {"device__dim": 16}),
    ("evolve", {"evolution__c_stab": 0.1}),
    # inf > 0 holds, so an infinite dt needs its own check
    ("evolve", {"evolution__dt": "inf"}),
    ("trajectories", {"evolution__dt": "inf"}),
    ("evolve", {"evolution__engine": "madelung", "evolution__dt": "inf"}),
    # a harmonic potential that is not finite on the grid; omega ** 2 overflows
    ("evolve", {"physics__potential": "harmonic", "physics__omega": "inf"}),
    ("trajectories", {"physics__potential": "harmonic", "physics__omega": "inf"}),
    ("evolve", {"physics__potential": "harmonic", "physics__center": "inf"}),
    ("trajectories", {"physics__potential": "harmonic", "physics__center": "inf"}),
    ("evolve", {"physics__potential": "harmonic", "physics__omega": "1e200"}),
    ("trajectories", {"physics__potential": "harmonic", "physics__omega": "1e200"}),
    # traces beyond MAX_TRACE_VALUES, refused before the initial state is built
    ("evolve", {"evolution__t_final": "1e300"}),
    ("evolve", {"grid__n": 100000000000}),
    ("trajectories", {"grid__n": 100000000000}),
    # devices beyond MAX_DEVICE_DIM, refused before any n x n matrix is built
    ("measure", {"grid__n": 100000}),
    ("amplify", {"grid__n": 100000}),
    # k ** 2 overflows, sigma ** 2 underflows to a zero divisor, and the step
    # count t_final / dt overflows
    ("measure", {"initial__k": "1e300"}),
    ("measure", {"initial__sigma": "1e-300"}),
    ("evolve", {"evolution__dt": "1e-10", "evolution__t_final": "1e300"}),
    # a plane wave past the grid's Nyquist mode n/2 = 32: k = 1e300 fits the
    # box only because every float past 2^53 is an integer
    ("measure", {"initial__preset": "plane_wave", "initial__k": "1e300"}),
    ("measure", {"initial__preset": "plane_wave", "initial__k": repr(2 * math.pi * 33 / 16)}),
    # n_particles must stay below MAX_PARTICLES
    ("trajectories", {"sampler__n_particles": 4000000}),
    # every snapshot time (0.005, 0.01) must be a whole number of sampler steps
    ("trajectories", {"sampler__dt": "3e-3"}),
    ("trajectories", {"sampler__dt": "2e-2"}),
    # the kinetic scale hbar^2 / (2 m dx^2) past a float: hbar^2 or dx^2 overflows
    *((command, overrides) for overrides in OVERFLOWING_KINETIC_SCALES
      for command in ("evolve", "trajectories")),
    # n_trials must stay below MAX_TRIALS; 1e14 trials was a MemoryError (exit 1)
    ("measure", {"device__n_trials": 4000000}),
    ("amplify", {"amplify__n_trials": 4000000}),
    ("measure", {"device__n_trials": 100000000000000}),
    ("amplify", {"amplify__n_trials": 100000000000000}),
    # more than MAX_STEPS steps: 1e298 of dt 1e-300, on either clock; a
    # stride past every step keeps the trace at two snapshots
    *((command, {"evolution__dt": "1e-300", "evolution__snapshot_stride": str(10**300)})
      for command in ("evolve", "trajectories")),
    ("trajectories", {"sampler__dt": "1e-300"}),
])
def test_config_rule_exit_2(command, overrides, ini, tmp_path, capsys):
    cfg = ini(**overrides)
    assert run(command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize("overrides", OVERFLOWING_KINETIC_SCALES)
@pytest.mark.parametrize("command", ["measure", "amplify"])
def test_kinetic_scale_binds_only_the_dynamics_commands(command, overrides, ini, tmp_path):
    """measure and amplify take no time step, so a kinetic scale past a
    float does not stop them."""
    assert run(command, "--config", ini(**overrides), "--out", str(tmp_path / "o")) == 0


def test_sampler_clock_is_checked_before_evolving(ini, tmp_path, monkeypatch, capsys):
    """A sampler dt that misses a snapshot time exits 2 before the initial
    state is built or any step is taken."""
    def evolve(*args, **kwargs):
        raise AssertionError("evolve called")

    monkeypatch.setattr(cli, "evolve", evolve)
    monkeypatch.setattr(cli.RunConfig, "initial_state", None)  # never reached
    cfg = ini(sampler__dt="3e-3")
    assert run("trajectories", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "sampler dt" in err["message"]


@pytest.mark.parametrize("command, overrides", [
    ("evolve", {"evolution__dt": "1e-300", "evolution__snapshot_stride": str(10**300)}),
    ("trajectories", {"evolution__dt": "1e-300", "evolution__snapshot_stride": str(10**300)}),
    ("trajectories", {"sampler__dt": "1e-300"}),
    # MAX_STEPS + 2 steps to t_final 0.01, each snapshot time a whole number of them
    ("trajectories", {"sampler__dt": repr(0.01 / (config.MAX_STEPS + 2))}),
])
def test_step_cap_is_checked_before_evolving(command, overrides, ini, tmp_path, monkeypatch,
                                              capsys):
    """A clock of more than MAX_STEPS steps exits 2 before the initial
    state is built or any step is taken."""
    def evolve(*args, **kwargs):
        raise AssertionError("evolve called")

    monkeypatch.setattr(cli, "evolve", evolve)
    monkeypatch.setattr(cli.RunConfig, "initial_state", None)  # never reached
    assert run(command, "--config", ini(**overrides), "--out", str(tmp_path / "o")) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"].endswith(f"steps exceeds the limit of {config.MAX_STEPS:g} steps")


def test_step_cap_admits_max_steps(ini):
    cfg = config.RunConfig.load(ini(sampler__dt=repr(0.01 / config.MAX_STEPS)))
    assert cfg.sampler_dt(cfg.evolution_configs()[0]) == 0.01 / config.MAX_STEPS


@pytest.mark.parametrize("mode", [32, -32])
def test_plane_wave_nyquist_mode_runs(mode, ini, tmp_path):
    """Mode n/2 is the last one the grid resolves; the Fourier device finds
    all of it in one outcome."""
    cfg = ini(initial__preset="plane_wave", initial__k=repr(2 * math.pi * mode / 16))
    out = tmp_path / "o"
    assert run("measure", "--config", cfg, "--out", str(out)) == 0
    probs = json.loads((out / "born.json").read_text())["probabilities"]
    assert max(probs) == pytest.approx(1.0, abs=1e-12)


def test_numpy_warnings_stay_off_stderr(ini, tmp_path):
    """A packet that overflows numpy on the grid (x_min = -1e300) exits 2
    with exactly one stderr line, the JSON error, and no RuntimeWarning
    ahead of it. Run in a fresh interpreter, where warnings print as they
    would for a user."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "edsim.cli", "measure", "--config", ini(grid__x_min="-1e300"),
         "--out", str(tmp_path / "o")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0]) == {
        "error": "ConfigError", "message": "[initial] the gaussian state has norm 0 on this grid"}


@pytest.mark.parametrize("command", ["evolve", "trajectories"])
def test_non_finite_cn_correction_exits_3_with_one_line(command, ini, tmp_path, capsys):
    """At m = 1e-300 the periodic Crank-Nicolson corner correction is not
    finite: the run exits 3 with one SolverError line on stderr, raised when
    the matrix is factored and with no numpy warning ahead of it (pytest
    turns a RuntimeWarning into an error). A hard wall has no corner, and
    runs at the same m."""
    cfg = ini(physics__m="1e-300")
    assert run(command, "--config", cfg, "--out", str(tmp_path / "o")) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "SolverError", "message": "Crank-Nicolson cyclic correction is not finite"}
    cfg = ini(physics__m="1e-300", evolution__boundary="hardwall")
    assert run(command, "--config", cfg, "--out", str(tmp_path / "h")) == 0


def test_measure_with_zero_born_cells_writes_strict_json(ini, tmp_path):
    """A packet whose Born vector has exact zeros (cell 67 here) exits 0
    with nothing on stderr, and chi2.json is strict JSON: the zero cells
    are left out of Pearson's sum and of the degrees of freedom. Run in a
    fresh interpreter, where warnings print as they would for a user."""
    out = tmp_path / "o"
    cfg = ini(grid__x_min=-20, grid__x_max=20, grid__n=128, initial__sigma=1)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "edsim.cli", "measure", "--config", cfg, "--out", str(out),
         "--seed", "17"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    probs = json.loads((out / "born.json").read_text())["probabilities"]
    zeros = [i for i, p in enumerate(probs) if p == 0.0]
    assert zeros == [67]

    def no_constants(name):
        raise ValueError(f"chi2.json holds {name}")

    rec = json.loads((out / "chi2.json").read_text(), parse_constant=no_constants)
    assert math.isfinite(rec["statistic"])
    assert rec["critical_value"] == chi2_critical(len(probs) - len(zeros) - 1)


def test_measure_with_one_born_cell_passes_with_strict_json(ini, tmp_path):
    """A packet far narrower than a cell puts all its Born probability in
    cell 32. With 0 degrees of freedom every draw lands there: chi2.json is
    strict JSON, its critical value is 0.0 and the test passes. Run in a
    fresh interpreter, where warnings print as they would for a user."""
    out = tmp_path / "o"
    cfg = ini(grid__x_min=-10, grid__x_max=10, grid__n=64, initial__mu=0.15625,
              initial__sigma=0.001, initial__k=0, device__preset="identity")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "edsim.cli", "measure", "--config", cfg, "--out", str(out),
         "--seed", "1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    probs = json.loads((out / "born.json").read_text())["probabilities"]
    assert [i for i, p in enumerate(probs) if p > 0.0] == [32]

    def no_constants(name):
        raise ValueError(f"chi2.json holds {name}")

    rec = json.loads((out / "chi2.json").read_text(), parse_constant=no_constants)
    assert rec["critical_value"] == 0.0
    assert rec["statistic"] == 0.0
    assert rec["pass"] is True


def test_trajectories_convert_each_snapshot_at_most_twice(ini, tmp_path, monkeypatch):
    """evolve converts each snapshot once, for its diagnostics row; the drift
    tables reuse that conversion and nothing rebuilds them per advance.

    The count is exact (S); the id still says "at most twice", the bound
    it held before the trace kept its conversions, so that it stays
    comparable with earlier runs of the suite."""
    real = dynamics.to_hydro
    calls = []

    def counted(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(dynamics, "to_hydro", counted)
    for t_final, stride, snapshots in ((0.01, 5, 3), (0.04, 1, 41)):
        calls.clear()
        cfg = ini(evolution__t_final=t_final, evolution__snapshot_stride=stride)
        out = tmp_path / f"s{snapshots}"
        assert run("trajectories", "--config", cfg, "--out", str(out)) == 0
        assert len(calls) == snapshots
        with open(out / "ensemble_current_flow.csv") as fh:
            assert sum(1 for _ in fh) == 1 + 200 * snapshots


@needs_fork
def test_evolve_both_converts_each_schrodinger_snapshot_at_most_twice(ini, tmp_path, monkeypatch,
                                                                      forks):
    """evolve converts each wavefunction snapshot once, for its diagnostics
    row; the snapshot file and compare_l1.csv reuse it. The density-phase
    engine converts only its initial state, once for cmd_evolve's up-front
    check in this process and once inside evolve in the forked worker,
    which this process does not count: S + 1 conversions.

    The count is exact; the id still says "at most twice", the bound it
    held before the trace kept its conversions, so that it stays
    comparable with earlier runs of the suite."""
    real = dynamics.to_hydro
    calls = []

    def counted(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(dynamics, "to_hydro", counted)
    for t_final, stride, snapshots in ((0.01, 5, 3), (0.04, 1, 41)):
        calls.clear()
        forks.clear()
        cfg = ini(evolution__engine="both", evolution__node_floor=0,
                  evolution__t_final=t_final, evolution__snapshot_stride=stride)
        out = tmp_path / f"s{snapshots}"
        assert run("evolve", "--config", cfg, "--out", str(out)) == 0
        assert len(forks) == 1
        assert len(calls) == snapshots + 1
        with open(out / "compare_l1.csv") as fh:
            assert sum(1 for _ in fh) == 1 + snapshots


def test_hard_wall_trajectories_keep_far_flung_particles_inside(ini, tmp_path):
    """At hbar = 1e10 one sampler step carries particles up to about 1e6 box
    lengths past a hard wall. The run still exits 0, with every written
    position inside the box."""
    out = tmp_path / "out"
    cfg = ini(physics__hbar="1e10", evolution__boundary="hardwall", evolution__node_floor=0)
    assert run("trajectories", "--config", cfg, "--out", str(out)) == 0
    with open(out / "ensemble_current_flow.csv") as fh:
        xs = np.array([float(r["x"]) for r in csv.DictReader(fh)])
    assert len(xs) == 200 * 3
    assert np.all((-8.0 <= xs) & (xs <= 8.0))


def test_trajectories_peak_does_not_grow_with_snapshots(ini, tmp_path):
    """The ensemble is streamed to its file: 2e4 particles over the same 20
    steps peak within 10% at 21 snapshots of what they peak at 2. Holding
    every snapshot's positions adds 8 bytes a particle per snapshot, 3.2 MB
    here on a peak near 4 MB. The step is 2^-10, so that every snapshot
    time prints in at most 12 characters and each snapshot's CSV text,
    which the peak holds, is about the same size."""
    peaks = {}
    for snapshots, stride in ((2, 20), (21, 1)):
        cfg = ini(sampler__n_particles=20000, evolution__dt=2.0**-10,
                  evolution__t_final=20 * 2.0**-10, evolution__snapshot_stride=stride,
                  evolution__node_floor=0)
        out = tmp_path / f"s{snapshots}"
        tracemalloc.start()
        try:
            assert run("trajectories", "--config", cfg, "--out", str(out)) == 0
            peaks[snapshots] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with open(out / "ensemble_current_flow.csv") as fh:
            assert sum(1 for _ in fh) == 1 + 20000 * snapshots
    assert peaks[21] < 1.1 * peaks[2], peaks


@pytest.mark.parametrize("mode", SAMPLER_MODES)
def test_advance_failing_partway_leaves_no_ensemble_file(mode, ini, tmp_path, monkeypatch,
                                                        capsys):
    """An advance that raises after some snapshots' rows are written exits
    3, and the partly written ensemble file goes with its temp file."""
    real, calls = cli.advance_ensemble, []

    def advance(*args, **kwargs):
        calls.append(1)
        if len(calls) == 4:
            raise NodeError("planted (t=0.004)")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "advance_ensemble", advance)
    cfg = ini(sampler__mode=mode, evolution__snapshot_stride=1, evolution__node_floor=0)
    out = tmp_path / "o"
    assert run("trajectories", "--config", cfg, "--out", str(out)) == 3
    assert len(calls) == 4
    assert json.loads(capsys.readouterr().err) == {
        "error": "NodeError", "message": "planted (t=0.004)"}
    assert listdir(out) == ["resolved.ini"]


def test_n_particles_cap_is_the_last_integer_below_max_particles(ini):
    """MAX_PARTICLES - 1 passes the rule; MAX_PARTICLES itself is a
    test_config_rule_exit_2 row."""
    cfg = config.RunConfig.load(ini(sampler__n_particles=config.MAX_PARTICLES - 1))
    assert cfg["sampler", "n_particles"] == config.MAX_PARTICLES - 1


@pytest.mark.parametrize("command, engine", [
    ("evolve", "schrodinger"), ("evolve", "both"), ("trajectories", "both")])
def test_trace_limit_counts_snapshots_times_cells(command, engine, ini, tmp_path, monkeypatch,
                                                  capsys):
    """The limit is on snapshots x cells: 5 snapshots (t = 0, 3, 6, 9 and
    10 dt) of 64 cells, per engine. Over it the run stops before the
    initial state is built."""
    cfg = ini(evolution__snapshot_stride=3, evolution__engine=engine, evolution__node_floor=0)
    monkeypatch.setattr(config, "MAX_TRACE_VALUES", 5 * 64)
    assert run(command, "--config", cfg, "--out", str(tmp_path / "a")) == 0
    monkeypatch.setattr(config, "MAX_TRACE_VALUES", 5 * 64 - 1)
    monkeypatch.setattr(cli.RunConfig, "initial_state", None)  # never reached
    assert run(command, "--config", cfg, "--out", str(tmp_path / "b")) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "5 x 64" in err["message"]


def test_device_limit_is_checked_before_any_matrix(ini, tmp_path, monkeypatch, capsys):
    """grid n = MAX_DEVICE_DIM runs; one more is refused before a device or
    a device file is built or read. n = 2048 stays within the limit."""
    assert config.MAX_DEVICE_DIM >= 2048
    monkeypatch.setattr(config, "MAX_DEVICE_DIM", 64)
    for command in ("measure", "amplify"):
        assert run(command, "--config", ini(), "--out", str(tmp_path / command)) == 0
    monkeypatch.setattr(config, "MAX_DEVICE_DIM", 63)
    monkeypatch.setattr(config, "fourier_device", None)  # never reached
    for command in ("measure", "amplify"):
        for overrides in ({}, {"device__preset": "file", "device__path": str(tmp_path / "no")}):
            assert run(command, "--config", ini(**overrides), "--out", str(tmp_path / "o")) == 2
            err = json.loads(capsys.readouterr().err)
            assert err == {"error": "ConfigError", "message": "device dimension 64 exceeds "
                           "the limit of 63 (dense n x n complex matrices)"}


def test_finite_madelung_blow_up_maps_to_exit_3(ini, tmp_path, capsys):
    # four steps inside the dt bound that renormalize by 2.68, 0.64, 8.1, 1.8e12
    cfg = ini(grid__n=8, initial__mu=0.6, initial__sigma=0.6, initial__k=0.0988,
              evolution__engine="madelung", evolution__dt=0.3952,
              evolution__t_final=1.5808, evolution__snapshot_stride=1,
              evolution__node_floor=0)
    assert run("evolve", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StabilityError"
    assert "renormalization correction" in err["message"] and "(t=0.3952)" in err["message"]
    assert list(err) == ["error", "message", "stage", "step", "t"]
    assert (err["stage"], err["step"], err["t"]) == ("madelung", 1, 0.3952)


def test_node_error_maps_to_exit_3(ini, tmp_path, capsys):
    # the default node floor trips on the far tail before the first step
    cfg = ini(evolution__engine="madelung")
    assert run("evolve", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "NodeError"


@pytest.mark.parametrize("overrides, error, message", [
    # dt = 1e-2 is over the Madelung bound 6.25e-3 at dx = 0.25
    ({"evolution__dt": "1e-2", "evolution__t_final": 0.1, "evolution__node_floor": 0},
     "StabilityError", "exceeds the stability bound"),
    ({}, "NodeError", "node floor"),
], ids=["dt_bound", "node_floor"])
def test_engine_both_checks_every_engine_before_stepping(
        overrides, error, message, ini, tmp_path, capsys):
    """A Madelung check that fails up front stops the run before the
    Schrodinger engine steps, so no trace or diagnostics file is written."""
    out = tmp_path / "o"
    cfg = ini(evolution__engine="both", **overrides)
    assert run("evolve", "--config", cfg, "--out", str(out)) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and message in err["message"]
    assert listdir(out) == ["resolved.ini"]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.sampled_from([8, 16, 32, 64]),
    steps=st.integers(0, 6),
    stride=st.integers(1, 4),
    engine=st.sampled_from(["schrodinger", "madelung", "both"]),
    boundary=st.sampled_from(["periodic", "hardwall"]),
    # dt as a multiple of the Madelung bound 0.1 dx^2, on both sides of it
    bound_share=st.sampled_from([0.05, 0.5, 0.99, 1.5, 40.0]),
    node_floor=st.sampled_from(["0", "1e-12", "1e-3"]),
    sigma=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    mu=st.floats(-8.0, 8.0),
    k=st.floats(-4.0, 4.0),
)
def test_evolve_fuzz_exits_with_a_documented_code(n, steps, stride, engine, boundary,
                                                  bound_share, node_floor, sigma, mu, k,
                                                  monkeypatch, ini, tmp_path, capsys):
    """Any small evolve config exits 0, 2, 3 or 4, never 1, with nothing on
    stderr or exactly one JSON error line, and raises no numpy warning.
    Without os.fork every job runs in this process, where the warnings and
    stderr are seen."""
    monkeypatch.delattr(os, "fork", raising=False)
    dt = bound_share * 0.1 * (16.0 / n) ** 2
    cfg = ini(grid__n=n, initial__sigma=repr(sigma), initial__mu=repr(mu),
              initial__k=repr(k), evolution__engine=engine, evolution__boundary=boundary,
              evolution__dt=repr(dt), evolution__t_final=repr(steps * dt),
              evolution__snapshot_stride=stride, evolution__node_floor=node_floor)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = tmp_path / f"out_{os.path.basename(cfg)}"
        code = run("evolve", "--config", cfg, "--out", str(out))
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), err
    assert not caught, [str(w.message) for w in caught]
    if err:
        line, = err.splitlines()
        keys = set(json.loads(line))
        assert keys == ERROR_KEYS or (code == 3 and keys == ERROR_KEYS | STEP_KEYS), keys


@pytest.mark.parametrize("command", ["trajectories", "measure", "amplify"])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.sampled_from([8, 16, 32, 64]),
    steps=st.integers(0, 6),
    stride=st.integers(1, 4),
    engine=st.sampled_from(["schrodinger", "madelung", "both"]),
    boundary=st.sampled_from(["periodic", "hardwall"]),
    node_floor=st.sampled_from(["0", "1e-12", "1e-3"]),
    mode=st.sampled_from(["current_flow", "entropic_diffusion", "both"]),
    # the sampler dt as a share of the evolution dt: 0 takes the evolution
    # dt, and 1.5 fits only snapshots a multiple of 3 steps in
    sampler_share=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
    n_particles=st.integers(2, 300),
    device=st.sampled_from(["identity", "fourier"]),
    likelihood=st.sampled_from(["ideal", "noisy"]),
    epsilon=st.floats(0.0, 1.0),
    prior=st.sampled_from(["born", "uniform"]),
    sigma=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    mu=st.floats(-8.0, 8.0),
    k=st.floats(-4.0, 4.0),
)
def test_particle_and_readout_fuzz_exits_with_a_documented_code(
        command, n, steps, stride, engine, boundary, node_floor, mode, sampler_share,
        n_particles, device, likelihood, epsilon, prior, sigma, mu, k, monkeypatch, ini,
        tmp_path, capsys):
    """Any small trajectories, measure or amplify config exits 0, 2, 3 or
    4, never 1, with nothing on stderr or exactly one JSON error line, and
    raises no numpy warning. Without os.fork every job runs in this
    process, where the warnings and stderr are seen."""
    monkeypatch.delattr(os, "fork", raising=False)
    dt = 0.5 * 0.1 * (16.0 / n) ** 2  # half the Madelung bound
    cfg = ini(grid__n=n, initial__sigma=repr(sigma), initial__mu=repr(mu),
              initial__k=repr(k), evolution__engine=engine, evolution__boundary=boundary,
              evolution__dt=repr(dt), evolution__t_final=repr(steps * dt),
              evolution__snapshot_stride=stride, evolution__node_floor=node_floor,
              sampler__mode=mode, sampler__dt=repr(sampler_share * dt),
              sampler__n_particles=n_particles, device__preset=device,
              amplify__likelihood=likelihood, amplify__epsilon=repr(epsilon),
              amplify__prior=prior)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = tmp_path / f"out_{os.path.basename(cfg)}"
        code = run(command, "--config", cfg, "--out", str(out))
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), err
    assert not caught, [str(w.message) for w in caught]
    if err:
        line, = err.splitlines()
        keys = set(json.loads(line))
        assert keys == ERROR_KEYS or (code == 3 and keys == ERROR_KEYS | STEP_KEYS), keys


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("field", ["basis", "eigenvalues"])
def test_non_finite_file_device_maps_to_exit_3(field, value, ini, tmp_path, capsys):
    """nan fails every "deviation > tolerance" check, so without a finiteness
    check a nan device would run and write NaN into born.json and chi2.json."""
    path = tmp_path / "device.json"
    write_device(path, dense_copy(fourier_device(64)))
    rec = json.loads(path.read_text())
    entry = rec["basis"][3] if field == "basis" else rec["eigenvalues"]
    entry[5][0] = float(value)
    path.write_text(json.dumps(rec))
    for command in ("measure", "amplify"):
        cfg = ini(device__preset="file", device__path=str(path))
        assert run(command, "--config", cfg, "--out", str(tmp_path / command)) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "BasisError"


def test_file_device_dimension_must_equal_grid_n(ini, tmp_path, capsys):
    path = tmp_path / "device.json"
    write_device(path, fourier_device(64))
    for command in ("measure", "amplify"):
        cfg = ini(grid__n=32, device__preset="file", device__path=str(path))
        assert run(command, "--config", cfg, "--out", str(tmp_path / command)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError",
                       "message": "device dimension 64 must equal grid n 32"}


def test_oversized_device_file_exits_2_before_it_is_parsed(ini, tmp_path, monkeypatch, capsys):
    """A valid n = 8 device file padded with whitespace past the longest
    file write_device can make for 8 cells exits 2, naming the file,
    without json.loads reading it; one byte less is parsed and runs."""
    path = tmp_path / "device.json"
    write_device(path, fourier_device(8))
    text = path.read_text()
    bound = device_file_bound(8)
    assert len(text) < bound
    cfg = ini(grid__n=8, device__preset="file", device__path=str(path))
    path.write_text(" " * (bound - len(text)) + text)
    assert run("measure", "--config", cfg, "--out", str(tmp_path / "fits")) == 0

    def loads(text):
        raise AssertionError("json.loads called")

    path.write_text(" " * (bound + 1 - len(text)) + text)
    monkeypatch.setattr(iomod, "json", types.SimpleNamespace(loads=loads))
    for command in ("measure", "amplify"):
        out = tmp_path / command
        assert run(command, "--config", cfg, "--out", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError",
                       "message": f"device file {path} is {bound + 1} bytes, more than a "
                                  f"valid 8-cell device file ({bound} bytes)"}
        assert listdir(out) == ["resolved.ini"]


@pytest.mark.parametrize("pointers, message", [
    # 64 pointer readings over the 64 cells; the bound is for 64 readings
    (64, "likelihood file {path} is {size} bytes, more than a valid likelihood "
         "file over 64 cells ({bound} bytes)"),
    # the same file under a cap of 63 readings fits the size bound of 63
    # readings and is refused for its 64 readings once parsed
    (63, "likelihood file {path} has 64 pointer readings, more than the limit of 63"),
])
def test_likelihood_file_over_its_caps_exits_2(pointers, message, ini, tmp_path, monkeypatch,
                                              capsys):
    """A likelihood file is refused with exit 2 when it is longer than
    likelihood_file_bound(n) for the device's n cells, before it is parsed,
    or when it has more than MAX_POINTERS readings. Padded with blank lines
    (which the reader skips) to exactly the bound, it runs."""
    monkeypatch.setattr(config, "MAX_POINTERS", 64)
    path = tmp_path / "likelihood.csv"
    write_likelihood_csv(path, noisy_likelihood(64, 0.1))
    text = path.read_text()
    bound = likelihood_file_bound(64)
    cfg = ini(amplify__likelihood="file", amplify__path=str(path))
    path.write_text(text + "\n" * (bound - len(text)))
    assert run("amplify", "--config", cfg, "--out", str(tmp_path / "fits")) == 0
    size = bound + 1 if pointers == 64 else len(text)
    path.write_text(text + "\n" * (size - len(text)))
    monkeypatch.setattr(config, "MAX_POINTERS", pointers)
    bound = likelihood_file_bound(64)
    out = tmp_path / "o"
    assert run("amplify", "--config", cfg, "--out", str(out)) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError", "message": message.format(path=path, size=size, bound=bound)}
    assert listdir(out) == ["resolved.ini"]


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize("kind, overrides, commands", [
    ("device", {"device__preset": "file", "device__path": "/dev/zero"}, ("measure", "amplify")),
    ("likelihood", {"amplify__likelihood": "file", "amplify__path": "/dev/zero"},
     ("amplify",)),
])
def test_endless_special_file_exits_2(kind, overrides, commands, ini, tmp_path, capsys):
    """os.path.getsize reads 0 for /dev/zero, which never ends: a reader
    stops one byte past its size bound and exits 2, naming the file."""
    bound = device_file_bound(64) if kind == "device" else likelihood_file_bound(64)
    for command in commands:
        out = tmp_path / command
        assert run(command, "--config", ini(**overrides), "--out", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{kind} file /dev/zero is over {bound} bytes, ")
        assert listdir(out) == ["resolved.ini"]


def test_smaller_device_file_of_another_dimension_exits_2(ini, tmp_path, capsys):
    """A 16-cell device file fits under the 32-cell bound, so it is parsed,
    and its dimension is refused after."""
    path = tmp_path / "device.json"
    write_device(path, dense_copy(fourier_device(16)))
    cfg = ini(grid__n=32, device__preset="file", device__path=str(path))
    assert run("measure", "--config", cfg, "--out", str(tmp_path / "m")) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError", "message": "device dimension 16 must equal grid n 32"}


def _edit_json(text, key, edit):
    rec = json.loads(text)
    rec[key] = edit(rec[key])
    return json.dumps(rec).encode()


MALFORMED_DEVICES = {
    # json.load's JSONDecodeError and UnicodeDecodeError
    "truncated": lambda text: text[: len(text) // 2].encode(),
    "not_utf8": lambda text: b"\xff" + text.encode(),
    # build_device's ValueError
    "eigenvalue_short": lambda text: _edit_json(text, "eigenvalues", lambda v: v[:-1]),
    # an OverflowError: no C long holds the cell
    "cell_overflow": lambda text: _edit_json(text, "target_cells",
                                             lambda v: v[:-1] + [10**30]),
    # cells that int() would truncate to 0 and 63, and JSON booleans
    "cell_fraction": lambda text: _edit_json(text, "target_cells",
                                             lambda v: [0.9] + v[1:-1] + [63.99]),
    "cell_boolean": lambda text: _edit_json(text, "target_cells",
                                            lambda v: [True, False] + v[2:]),
    # a basis or eigenvalue entry must be a number; JSON true is not 1, and
    # the identity spelled with true and false would run as it
    "basis_boolean": lambda text: _edit_json(
        text, "basis", lambda v: [[[i == j, False] for j in range(64)] for i in range(64)]),
    "eigenvalue_boolean": lambda text: _edit_json(text, "eigenvalues",
                                                  lambda v: [[True, False]] + v[1:]),
    # dim must be the integer count of basis rows; JSON true is not 1
    "dim_mismatch": lambda text: _edit_json(text, "dim", lambda v: 3),
    "dim_boolean": lambda text: _edit_json(
        _edit_json(text, "basis", lambda v: v[:1]), "dim", lambda v: True),
    # json's RecursionError: 100 KB, under the size bound of 225,216 bytes
    "deep_nesting": lambda text: b"[" * 50_000 + b"]" * 50_000,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DEVICES))
def test_malformed_device_file_exits_2_naming_it(case, ini, tmp_path, capsys):
    path = tmp_path / "device.json"
    write_device(path, dense_copy(fourier_device(64)))
    path.write_bytes(MALFORMED_DEVICES[case](path.read_text()))
    for command in ("measure", "amplify"):
        out = tmp_path / command
        cfg = ini(device__preset="file", device__path=str(path))
        assert run(command, "--config", cfg, "--out", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"malformed device file {path}: ")
        assert listdir(out) == ["resolved.ini"]


@pytest.mark.parametrize("cell", [64, 99, -1])
def test_target_cell_off_the_grid_exits_3(cell, ini, tmp_path, capsys):
    """Cells are indices into the 64-cell grid: 99 would be tallied in
    outcomes.csv as a cell that does not exist."""
    path = tmp_path / "device.json"
    write_device(path, dense_copy(fourier_device(64)))
    path.write_bytes(_edit_json(path.read_text(), "target_cells",
                                lambda v: v[:-1] + [cell]))
    for command in ("measure", "amplify"):
        out = tmp_path / command
        cfg = ini(device__preset="file", device__path=str(path))
        assert run(command, "--config", cfg, "--out", str(out)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "CellError", "message": "target cells must lie in [0, 64)"}
        assert listdir(out) == ["resolved.ini"]


def test_file_device_within_basis_tolerance_amplifies(ini, tmp_path):
    """B = I + (sqrt(1 + 64 eps) - 1) u u^T with u = 1/sqrt(64) has Gram
    deviation eps = 0.9e-10, under ORTHO_TOL, so build_device accepts it.
    On the flat plane wave its Born vector sums to 1 + 64 eps, within
    n x ORTHO_TOL: amplify's default Born prior takes it as it is, and each
    posterior row is normalized by its own evidence."""
    eps, n = 0.9e-10, 64
    basis = np.eye(n) + (math.sqrt(1.0 + n * eps) - 1.0) / n
    path = tmp_path / "device.json"
    write_device(path, build_device(basis, np.arange(n)))
    cfg = ini(initial__preset="plane_wave", initial__k=0, device__preset="file",
              device__path=str(path))
    assert run("measure", "--config", cfg, "--out", str(tmp_path / "m")) == 0
    assert run("amplify", "--config", cfg, "--out", str(tmp_path / "a")) == 0
    joined = join_experiment_log((tmp_path / "a" / "experiment.ndjson").read_text(),
                                 (tmp_path / "a" / "posteriors.ndjson").read_text())
    for line in joined.splitlines():
        assert abs(math.fsum(json.loads(line)["posterior"]) - 1.0) <= 1e-12


def _edit_row(text, edit):
    lines = text.splitlines()
    lines[4] = edit(lines[4].split(","))
    return ("\n".join(lines) + "\n").encode()


MALFORMED_LIKELIHOODS = {
    "non_numeric": lambda text: _edit_row(text, lambda row: ",".join(row[:-2] + ["0.5", "x"])),
    "short_row": lambda text: _edit_row(text, lambda row: ",".join(row[:-1])),
    "binary": lambda text: b"\xff\xfe\x00\x01" + text.encode(),
    # the header must be the labels of the data rows' columns, and a data
    # row must follow it
    "header_only": lambda text: text.splitlines()[0].encode() + b"\n",
    "header_short": lambda text: ("alpha_0,alpha_1,alpha_2\n"
                                  + text.split("\n", 1)[1]).encode(),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LIKELIHOODS))
def test_malformed_likelihood_file_exits_2_naming_it(case, ini, tmp_path, capsys):
    path = tmp_path / "likelihood.csv"
    write_likelihood_csv(path, dense_copy(noisy_likelihood(64, 0.1)))
    path.write_bytes(MALFORMED_LIKELIHOODS[case](path.read_text()))
    out = tmp_path / "o"
    cfg = ini(amplify__likelihood="file", amplify__path=str(path))
    assert run("amplify", "--config", cfg, "--out", str(out)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(f"malformed likelihood file {path}: ")
    assert listdir(out) == ["resolved.ini"]


@pytest.mark.parametrize("command, section, overrides", [
    ("measure", "device", {"device__preset": "file"}),
    ("amplify", "amplify", {"amplify__likelihood": "file"}),
])
def test_n_trials_is_checked_before_any_file_is_read(command, section, overrides, ini,
                                                      tmp_path, capsys):
    """The missing file would exit 4 once read; n_trials = 0 exits 2 before
    the device, the likelihood or the prior is built."""
    cfg = ini(**overrides, **{f"{section}__path": str(tmp_path / "missing"),
                              f"{section}__n_trials": 0})
    assert run(command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError", "message": f"[{section}] n_trials must be an "
                   "integer >= 1 and < 4000000, got '0'"}


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_file_likelihood_maps_to_exit_3(value, ini, tmp_path, capsys):
    path = tmp_path / "likelihood.csv"
    write_likelihood_csv(path, dense_copy(noisy_likelihood(64, 0.1)))
    lines = path.read_text().splitlines()
    row = lines[4].split(",")
    row[7] = value
    lines[4] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    cfg = ini(amplify__likelihood="file", amplify__path=str(path))
    assert run("amplify", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "RangeError"


@pytest.mark.parametrize("device, likelihood", [("fourier", "noisy"), ("identity", "ideal")])
def test_rerun_on_its_own_files_writes_its_tree(device, likelihood, ini, tmp_path):
    """measure and amplify on the device.json and likelihood.csv a first run
    wrote write that run's files byte for byte: each file rereads as the
    preset it names. Only resolved.ini, which names the files, differs."""
    first = tmp_path / "first"
    cfg = ini(device__preset=device, amplify__likelihood=likelihood)
    again = ini(device__preset="file", device__path=str(first / "measure" / "device.json"),
                amplify__likelihood="file",
                amplify__path=str(first / "amplify" / "likelihood.csv"))
    for command in ("measure", "amplify"):
        assert run(command, "--config", cfg, "--out", str(first / command)) == 0
    for command in ("measure", "amplify"):
        out = tmp_path / "again" / command
        assert run(command, "--config", again, "--out", str(out)) == 0
        assert listdir(out) == listdir(first / command)
        for name in listdir(out):
            same = (out / name).read_bytes() == (first / command / name).read_bytes()
            assert same == (name != "resolved.ini"), name


MALFORMED_PRESET_DEVICES = {
    "unknown_name": {"dim": 64, "preset": "fft"},
    "file_name": {"dim": 64, "preset": "file"},
    "no_name": {"dim": 64, "preset": None},
    "dim_boolean": {"dim": True, "preset": "identity"},
    "dim_fraction": {"dim": 64.0, "preset": "fourier"},
    "dim_missing": {"preset": "fourier"},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PRESET_DEVICES))
def test_malformed_preset_device_file_exits_2_naming_it(case, ini, tmp_path, capsys):
    path = tmp_path / "device.json"
    path.write_text(json.dumps(MALFORMED_PRESET_DEVICES[case]) + "\n")
    for command in ("measure", "amplify"):
        out = tmp_path / command
        cfg = ini(device__preset="file", device__path=str(path))
        assert run(command, "--config", cfg, "--out", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"malformed device file {path}: ")
        assert listdir(out) == ["resolved.ini"]


@pytest.mark.parametrize("dim", [8, 65, 10**12])
def test_preset_device_file_of_another_dimension_exits_2_unbuilt(dim, ini, tmp_path, capsys):
    """The stated dim is checked against the grid before the preset is
    built: a trillion-cell identity exits 2 with a small traced peak."""
    path = tmp_path / "device.json"
    path.write_text(json.dumps({"dim": dim, "preset": "identity"}) + "\n")
    cfg = ini(device__preset="file", device__path=str(path))
    tracemalloc.start()
    try:
        code = run("measure", "--config", cfg, "--out", str(tmp_path / "m"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError", "message": f"device dimension {dim} must equal grid n 64"}
    assert peak < 2**20


MALFORMED_PRESET_LIKELIHOODS = {
    "n_fraction": "64.0,1,0",
    "n_inf": "inf,1,0",
    "n_zero": "0,1,0",
    "n_negative": "-64,1,0",
    "on_text": "64,one,0",
    "two_values": "64,1",
    "four_values": "64,1,0,0",
    "no_line": "",
    "two_lines": "64,1,0\n64,1,0",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PRESET_LIKELIHOODS))
def test_malformed_preset_likelihood_file_exits_2_naming_it(case, ini, tmp_path, capsys):
    path = tmp_path / "likelihood.csv"
    path.write_text("n,on,off\n" + MALFORMED_PRESET_LIKELIHOODS[case] + "\n")
    out = tmp_path / "o"
    assert run("amplify", "--config", ini(amplify__likelihood="file", amplify__path=str(path)),
               "--out", str(out)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(f"malformed likelihood file {path}: ")
    assert listdir(out) == ["resolved.ini"]


@pytest.mark.parametrize("line, code, error", [
    ("64,1.5,0", 3, "RangeError"),  # on above 1
    ("64,1.0625,-0.00099206349206349201", 3, "RangeError"),  # off below 0, sum 1
    ("64,nan,0", 3, "RangeError"),
    ("64,0.90000000000000002,0.10000000000000001", 3, "RangeError"),  # sum 7.2
    ("64,1,1e-13", 3, "RangeError"),  # sum 1 + 6.3e-12, past _COLUMN_TOL
    ("64,1,1e-15", 0, None),  # sum 1 + 6.3e-14, within it
    ("32,1,0", 2, "ConfigError"),  # 32 cells under a 64-cell device
])
def test_preset_likelihood_file_is_checked_as_a_dense_one(line, code, error, ini, tmp_path,
                                                          capsys):
    """A preset's two values meet the range and column-sum checks of a dense
    file, with the same exit codes, and its n must be the device's."""
    path = tmp_path / "likelihood.csv"
    path.write_text("n,on,off\n" + line + "\n")
    cfg = ini(amplify__likelihood="file", amplify__path=str(path))
    assert run("amplify", "--config", cfg, "--out", str(tmp_path / "o")) == code
    err = capsys.readouterr().err
    assert (json.loads(err)["error"] if err else None) == error


def test_blocked_out_dir_maps_to_exit_4(ini, tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory\n")
    assert run("evolve", "--config", ini(), "--out", str(blocked)) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "FileExistsError"


def test_no_out_anywhere_is_usage_error(ini, capsys, monkeypatch):
    monkeypatch.delenv("EDSIM_OUT", raising=False)
    assert run("evolve", "--config", ini()) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_edsim_out_env(ini, tmp_path, monkeypatch):
    out = tmp_path / "from_env"
    monkeypatch.setenv("EDSIM_OUT", str(out))
    assert run("evolve", "--config", ini()) == 0
    assert (out / "trace_schrodinger.ndjson").exists()


def test_seed_override(ini, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("measure", "--config", ini(), "--out", str(a), "--seed", "1") == 0
    assert run("measure", "--config", ini(), "--out", str(b), "--seed", "2") == 0
    assert (a / "outcomes.csv").read_bytes() != (b / "outcomes.csv").read_bytes()
    assert "seed = 1" in (a / "resolved.ini").read_text()
    # --seed replaces [run] seed and takes its rule
    assert run("measure", "--config", ini(), "--out", str(b), "--seed", str(2**64)) == 2
    # Born probabilities do not depend on the sampling seed
    assert (a / "born.json").read_bytes() == (b / "born.json").read_bytes()


def test_rerun_is_byte_identical(ini, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run("measure", "--config", ini(), "--out", str(d)) == 0
    for name in ("outcomes.csv", "chi2.json", "device.json", "born.json",
                 "resolved.ini"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_validate_filter_pass(tmp_path, capsys):
    out = tmp_path / "v"
    assert run("validate", "--filter", "normality_gate", "--out", str(out)) == 0
    assert "PASS normality_gate" in capsys.readouterr().out
    assert "PASS normality_gate" in (out / "validation.txt").read_text()
    assert not (out / "resolved.ini").exists()  # no config to archive


def test_validate_filter_failing_criterion(capsys):
    assert run("validate", "--filter", "analytic_spreading") == 5
    assert "FAIL analytic_spreading" in capsys.readouterr().out


@pytest.mark.parametrize("option", ["--config", "--seed"])
def test_validate_takes_no_config_or_seed(option, ini, capsys):
    """The criteria pin their own configurations and seeds, so validate
    refuses the options rather than ignore them."""
    value = ini() if option == "--config" else "5"
    assert run("validate", "--filter", "normality_gate", option, value) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_validate_unknown_filter(capsys):
    assert run("validate", "--filter", "no_such_criterion") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_validate_filter_naming_nothing_runs_nothing(capsys, monkeypatch):
    """A --filter with no name in it, "," or "", exits 2 before any
    criterion runs; it used to run all ten."""
    def run_one(name):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(cli.acceptance, "run_one", run_one)
    for expr in (",", ""):
        assert run("validate", "--filter", expr) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"--filter '{expr}' names no criterion")


def test_usage_error_from_argparse(capsys):
    assert run("evolve") == 2  # --config is required
    capsys.readouterr()
