"""End-to-end checks of the command line driver, run in-process."""

import csv
import itertools
import json

import pytest

from edsim import cli, dynamics, fourier_device, noisy_likelihood
from edsim.io import read_snapshots, write_device, write_likelihood_csv

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
    # 1e11 particles x 3 snapshots of positions: refused before any allocation
    ("trajectories", {"sampler__n_particles": 100000000000}),
])
def test_config_rule_exit_2(command, overrides, ini, tmp_path, capsys):
    cfg = ini(**overrides)
    assert run(command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


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


def test_ensemble_limit_counts_the_recorded_positions(ini, tmp_path, monkeypatch, capsys):
    """The limit is on n_particles x snapshots: 200 particles at the 5
    snapshots t = 0, 3, 6, 9 and 10 dt."""
    cfg = ini(evolution__snapshot_stride=3)
    monkeypatch.setattr(cli, "MAX_ENSEMBLE_POSITIONS", 200 * 5)
    assert run("trajectories", "--config", cfg, "--out", str(tmp_path / "a")) == 0
    with open(tmp_path / "a" / "ensemble_current_flow.csv") as fh:
        assert sum(1 for _ in fh) == 1 + 200 * 5
    monkeypatch.setattr(cli, "MAX_ENSEMBLE_POSITIONS", 200 * 5 - 1)
    assert run("trajectories", "--config", cfg, "--out", str(tmp_path / "b")) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "200 x 5" in err["message"]


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
