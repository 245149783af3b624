"""End-to-end checks of the command line driver, run in-process."""

import csv
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from edsim import (
    NodeError,
    chi2_critical,
    cli,
    config,
    dynamics,
    fourier_device,
    noisy_likelihood,
)
from edsim.io import read_snapshots, write_device, write_likelihood_csv
from edsim.trajectories import ENTROPIC_DIFFUSION, SAMPLER_MODES

DEFAULTS = {
    "grid": {"x_min": -8, "x_max": 8, "n": 64},
    "initial": {"preset": "gaussian", "mu": -1, "k": 1},
    "evolution": {"dt": "1e-3", "t_final": 0.01, "snapshot_stride": 5},
    "sampler": {"mode": "current_flow", "n_particles": 200},
    "device": {"n_trials": 2000},
    "amplify": {"epsilon": 0.1, "n_trials": 500},
    "run": {"seed": 3},
}


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


def take_path(monkeypatch, path):
    """Make _run_modes, and so cmd_trajectories and cmd_evolve, take the
    "forked" or the "inline" path, through its CPU probe alone."""
    cpus = 2 if path == "forked" else 1
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("path", ["forked", "inline"])
@pytest.mark.parametrize("seed", [3, 17])
def test_both_modes_match_single_mode_runs(seed, path, forks, monkeypatch, ini, tmp_path):
    """mode = both writes each mode's ensemble and KS record byte for byte
    as a run of that mode alone does, whether the second mode runs in a
    forked worker or in-process."""
    take_path(monkeypatch, path)
    both = tmp_path / "both"
    assert run("trajectories", "--config", ini(sampler__mode="both"),
               "--out", str(both), "--seed", str(seed)) == 0
    assert len(forks) == (path == "forked")
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
    assert len(forks) == (path == "forked")


@pytest.mark.parametrize("case, code, error", [
    # the floor trips on the entropic_diffusion tails; current_flow has no check
    ("node_error", 3, "NodeError"),
    # a directory where the ensemble file's rename lands
    ("squatter", 4, "IsADirectoryError"),
    # both modes fail: the first mode's error is the one reported
    ("both_fail", 4, "IsADirectoryError"),
])
@needs_fork
def test_worker_errors_match_inline(case, code, error, forks, monkeypatch, ini, tmp_path,
                                    capsys):
    """An error in either mode gives the same exit code, JSON stderr line
    and files on the forked path as in-process, and leaves no temp file
    and no child process behind."""
    floor = {"evolution__node_floor": 0.05} if case != "squatter" else {}
    squat = {"node_error": None, "squatter": ENTROPIC_DIFFUSION,
             "both_fail": "current_flow"}[case]
    cfg = ini(sampler__mode="both", **floor)
    seen = {}
    for path in ("forked", "inline"):
        take_path(monkeypatch, path)
        out = tmp_path / path
        out.mkdir()
        if squat:
            (out / f"ensemble_{squat}.csv").mkdir()
        assert run("trajectories", "--config", cfg, "--out", str(out)) == code
        assert_no_child_left()
        assert not list(out.glob("*.tmp"))
        err = capsys.readouterr().err.replace(str(out), "<out>")
        assert json.loads(err)["error"] == error
        # the temp file's name is random on either path
        seen[path] = re.sub(r"\.\w+\.tmp'", ".<tmp>'", err), listdir(out)
    assert seen["forked"] == seen["inline"]
    assert len(forks) == 1


@needs_fork
def test_killed_worker_exits_1_naming_mode_and_signal(forks, monkeypatch, ini, tmp_path, capsys):
    real, runner = cli.advance_ensemble, os.getpid()

    def advance(ens, fields, dt, mode, *args, **kwargs):
        # only ever in a worker: the test runner itself must survive
        if mode == ENTROPIC_DIFFUSION and os.getpid() != runner:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(ens, fields, dt, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "advance_ensemble", advance)
    take_path(monkeypatch, "forked")
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
@pytest.mark.parametrize("path", ["forked", "inline"])
def test_run_modes_returns_each_value_in_mode_order(path, forks, monkeypatch):
    """A numpy array from each mode comes back bit for bit, in mode order,
    whichever process ran the mode."""
    take_path(monkeypatch, path)
    special = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, np.pi]
    values = {"a": np.array(special), "b": np.array(special[::-1]) * -1.0}
    got = cli._run_modes(values.__getitem__, ("a", "b"))
    assert len(forks) == (path == "forked")
    assert_no_child_left()
    assert [v.tobytes() for v in got] == [values["a"].tobytes(), values["b"].tobytes()]
    assert cli._run_modes(values.__getitem__, ("b",))[0].tobytes() == values["b"].tobytes()


ENGINE_FILES = [f"{kind}_{eng}.{ext}" for eng in ("madelung", "schrodinger")
                for kind, ext in (("diagnostics", "csv"), ("trace", "ndjson"))]


@needs_fork
@pytest.mark.parametrize("boundary", ["periodic", "hardwall"])
def test_engine_both_forked_matches_inline(boundary, forks, monkeypatch, ini, tmp_path):
    """engine = both writes the same bytes whether the Madelung engine runs
    in a forked worker or in-process, with one fork on the forked path."""
    cfg = ini(evolution__engine="both", evolution__node_floor=0,
              evolution__boundary=boundary)
    files = {}
    for path in ("forked", "inline"):
        take_path(monkeypatch, path)
        out = tmp_path / path
        assert run("evolve", "--config", cfg, "--out", str(out)) == 0
        assert len(forks) == 1
        assert_no_child_left()
        assert listdir(out) == sorted(["compare_l1.csv", "resolved.ini"] + ENGINE_FILES)
        files[path] = {name: (out / name).read_bytes() for name in listdir(out)}
    assert files["forked"] == files["inline"]


@pytest.mark.parametrize("overrides, error", [
    # the initial tail (3.1e-18) clears the floor; the first step clips it to 0
    ({"evolution__node_floor": "1e-18"}, "NodeError"),
    # four steps inside the dt bound that renormalize by 2.68, 0.64, 8.1, 1.8e12
    ({"grid__n": 8, "initial__mu": 0.6, "initial__sigma": 0.6, "initial__k": 0.0988,
      "evolution__dt": 0.3952, "evolution__t_final": 1.5808,
      "evolution__snapshot_stride": 1, "evolution__node_floor": 0}, "StabilityError"),
], ids=["node_floor", "blow_up"])
@needs_fork
def test_madelung_errors_match_inline(overrides, error, forks, monkeypatch, ini, tmp_path,
                                      capsys):
    """A Madelung failure mid-run gives the same exit 3, JSON stderr line and
    files on the forked path as in-process, and leaves no temp file and no
    child process behind."""
    cfg = ini(evolution__engine="both", **overrides)
    seen = {}
    for path in ("forked", "inline"):
        take_path(monkeypatch, path)
        out = tmp_path / path
        assert run("evolve", "--config", cfg, "--out", str(out)) == 3
        assert_no_child_left()
        assert not list(out.glob("*.tmp"))
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == error
        seen[path] = err, listdir(out)
    assert seen["forked"] == seen["inline"]
    assert seen["inline"][1] == ["diagnostics_schrodinger.csv", "resolved.ini",
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
    take_path(monkeypatch, "forked")
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
        "experiment.ndjson", "likelihood.csv", "resolved.ini", "summary.json",
    ]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_trials"] == 500
    assert summary["n_pointers"] == 64
    assert 0.0 <= summary["error_rate"] <= 1.0
    lines = (out / "experiment.ndjson").read_text().splitlines()
    assert len(lines) == 500
    first = json.loads(lines[0])
    assert set(first) >= {"trial", "true_i", "observed_r", "map_i"}


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
    ("validate", {"validate__madelung_dt": "nan"}),
    ("validate", {"validate__madelung_dt": "-1e-4"}),
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
])
def test_config_rule_exit_2(command, overrides, ini, tmp_path, capsys):
    cfg = ini(**overrides)
    assert run(command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


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


def test_measure_with_zero_born_cells_writes_strict_json(ini, tmp_path):
    """A packet whose Born vector has exact zeros (cells 68 and 70 here)
    exits 0 with nothing on stderr, and chi2.json is strict JSON: the zero
    cells are left out of Pearson's sum and of the degrees of freedom. Run
    in a fresh interpreter, where warnings print as they would for a user."""
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
    assert zeros == [68, 70]

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


def test_evolve_both_converts_each_schrodinger_snapshot_at_most_twice(ini, tmp_path, monkeypatch):
    """evolve converts each wavefunction snapshot once, for its diagnostics
    row; the snapshot file and compare_l1.csv reuse it. The density-phase
    engine converts only its initial state.

    The count is exact (S + 1); the id still says "at most twice", the
    bound it held before the trace kept its conversions, so that it stays
    comparable with earlier runs of the suite."""
    real = dynamics.to_hydro
    calls = []

    def counted(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(dynamics, "to_hydro", counted)
    for t_final, stride, snapshots in ((0.01, 5, 3), (0.04, 1, 41)):
        calls.clear()
        cfg = ini(evolution__engine="both", evolution__node_floor=0,
                  evolution__t_final=t_final, evolution__snapshot_stride=stride)
        out = tmp_path / f"s{snapshots}"
        assert run("evolve", "--config", cfg, "--out", str(out)) == 0
        assert len(calls) == snapshots + 1
        with open(out / "compare_l1.csv") as fh:
            assert sum(1 for _ in fh) == 1 + snapshots


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
    monkeypatch.setattr(cli, "MAX_TRACE_VALUES", 5 * 64)
    assert run(command, "--config", cfg, "--out", str(tmp_path / "a")) == 0
    monkeypatch.setattr(cli, "MAX_TRACE_VALUES", 5 * 64 - 1)
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


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("field", ["basis", "eigenvalues"])
def test_non_finite_file_device_maps_to_exit_3(field, value, ini, tmp_path, capsys):
    """nan fails every "deviation > tolerance" check, so without a finiteness
    check a nan device would run and write NaN into born.json and chi2.json."""
    path = tmp_path / "device.json"
    write_device(path, fourier_device(64))
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
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DEVICES))
def test_malformed_device_file_exits_2_naming_it(case, ini, tmp_path, capsys):
    path = tmp_path / "device.json"
    write_device(path, fourier_device(64))
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
    write_device(path, fourier_device(64))
    path.write_bytes(_edit_json(path.read_text(), "target_cells",
                                lambda v: v[:-1] + [cell]))
    for command in ("measure", "amplify"):
        out = tmp_path / command
        cfg = ini(device__preset="file", device__path=str(path))
        assert run(command, "--config", cfg, "--out", str(out)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "CellError", "message": "target cells must lie in [0, 64)"}
        assert listdir(out) == ["resolved.ini"]


def _edit_row(text, edit):
    lines = text.splitlines()
    lines[4] = edit(lines[4].split(","))
    return ("\n".join(lines) + "\n").encode()


MALFORMED_LIKELIHOODS = {
    "non_numeric": lambda text: _edit_row(text, lambda row: ",".join(row[:-2] + ["0.5", "x"])),
    "short_row": lambda text: _edit_row(text, lambda row: ",".join(row[:-1])),
    "binary": lambda text: b"\xff\xfe\x00\x01" + text.encode(),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LIKELIHOODS))
def test_malformed_likelihood_file_exits_2_naming_it(case, ini, tmp_path, capsys):
    path = tmp_path / "likelihood.csv"
    write_likelihood_csv(path, noisy_likelihood(64, 0.1))
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
    assert err == {"error": "ConfigError",
                   "message": f"[{section}] n_trials must be an integer >= 1, got '0'"}


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_file_likelihood_maps_to_exit_3(value, ini, tmp_path, capsys):
    path = tmp_path / "likelihood.csv"
    write_likelihood_csv(path, noisy_likelihood(64, 0.1))
    lines = path.read_text().splitlines()
    row = lines[4].split(",")
    row[7] = value
    lines[4] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    cfg = ini(amplify__likelihood="file", amplify__path=str(path))
    assert run("amplify", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "RangeError"


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


def test_validate_unknown_filter(capsys):
    assert run("validate", "--filter", "no_such_criterion") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_usage_error_from_argparse(capsys):
    assert run("evolve") == 2  # --config is required
    capsys.readouterr()
