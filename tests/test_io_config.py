import configparser
import csv
import itertools
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import edsim.io as iomod
from edsim import config
from edsim.config import _SCHEMA, Num
from edsim import (
    BasisError,
    ConfigError,
    EvolutionConfig,
    Grid1D,
    LikelihoodModel,
    PhysicalParams,
    RunConfig,
    WaveFunction,
    build_device,
    evolve,
    fourier_device,
    free_gaussian,
    ideal_likelihood,
    identity_device,
    noisy_likelihood,
)
from oracles import dense_copy


def small_trace():
    g = Grid1D(-8.0, 8.0, 64)
    psi = WaveFunction(g, free_gaussian(g.cells)).normalized()
    return evolve(
        psi,
        PhysicalParams(),
        EvolutionConfig(dt=1e-3, t_final=0.01, engine="schrodinger", snapshot_stride=5),
    )


def test_snapshot_round_trip(tmp_path):
    tr = small_trace()
    path = tmp_path / "trace.ndjson"
    iomod.write_snapshots(path, tr.grid, *tr.field_arrays())
    back = iomod.read_snapshots(path)
    ts, rhos, phis = tr.field_arrays()
    assert len(back) == len(ts)
    for (t, x, rho, phi), t_ref, rho_ref, phi_ref in zip(back, ts, rhos, phis):
        assert t == t_ref  # 17 significant digits round-trip binary64
        assert np.array_equal(rho, rho_ref)
        assert np.array_equal(phi, phi_ref)
        assert np.array_equal(x, tr.grid.cells)


def test_no_temp_files_left(tmp_path):
    tr = small_trace()
    iomod.write_snapshots(tmp_path / "a.ndjson", tr.grid, *tr.field_arrays())
    iomod.write_diagnostics(tmp_path / "b.csv", tr.diagnostics)
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


def test_diagnostics_header(tmp_path):
    tr = small_trace()
    path = tmp_path / "diag.csv"
    iomod.write_diagnostics(path, tr.diagnostics)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,norm,energy,renorm_correction"
    assert len(lines) == len(tr.diagnostics) + 1


def test_ensemble_csv(tmp_path):
    path = tmp_path / "ens.csv"
    iomod.write_ensemble_csv(path, [(0.0, [-1.25, 0.5])])
    lines = path.read_text().splitlines()
    assert lines[0] == "particle_id,t,x"
    assert lines[1] == "0,0,-1.25"


# signed zeros, the smallest subnormal, the smallest normal and the largest
# finite floats, which a uniform draw would rarely produce
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               -2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308)
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


@st.composite
def snapshot_fields(draw):
    s, n = draw(st.integers(1, 4)), draw(st.integers(8, 12))
    x_min = draw(st.floats(-1e6, 1e6))
    grid = Grid1D(x_min, x_min + draw(st.floats(1e-3, 1e6)), n)
    return grid, *(draw(arrays(float, shape, elements=FINITE)) for shape in (s, (s, n), (s, n)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(snapshot_fields())
def test_snapshots_round_trip_every_finite_float(tmp_path, fields):
    grid, ts, rhos, phis = fields
    path = tmp_path / "trace.ndjson"
    iomod.write_snapshots(path, grid, ts, rhos, phis)
    back = iomod.read_snapshots(path)
    assert [bits(t) for t, *_ in back] == [bits(t) for t in ts]
    assert all(bits(x) == bits(grid.cells) for _, x, _, _ in back)
    assert bits([rho for _, _, rho, _ in back]) == bits(rhos)
    assert bits([phi for *_, phi in back]) == bits(phis)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(FINITE, st.lists(FINITE, min_size=1, max_size=6)),
                min_size=1, max_size=4))
def test_ensemble_csv_round_trips_every_finite_float(tmp_path, snapshots):
    path = tmp_path / "ensemble.csv"
    iomod.write_ensemble_csv(path, iter(snapshots))
    with open(path, newline="") as fh:
        rows = [(int(r["particle_id"]), bits(float(r["t"])), bits(float(r["x"])))
                for r in csv.DictReader(fh)]
    assert rows == [(i, bits(t), bits(x)) for t, xs in snapshots for i, x in enumerate(xs)]


def test_device_round_trip(tmp_path):
    dev = fourier_device(6)
    path = tmp_path / "device.json"
    iomod.write_device(path, dev)
    back = iomod.read_device(path, 6)
    assert back.dim == 6
    assert_allclose(back.basis, dev.basis, atol=1e-16)
    assert_allclose(back.eigenvalues, dev.eigenvalues, atol=1e-16)
    assert np.array_equal(back.target_cells, dev.target_cells)


def test_read_device_revalidates(tmp_path):
    dev = dense_copy(fourier_device(4))
    path = tmp_path / "device.json"
    iomod.write_device(path, dev)
    rec = json.loads(path.read_text())
    rec["basis"][0][0] = [3.0, 0.0]  # corrupt one amplitude
    path.write_text(json.dumps(rec))
    with pytest.raises(BasisError):
        iomod.read_device(path, 4)


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 100, 101])
def test_device_file_bound_holds_the_longest_file(n):
    """Every float at the longest json.dumps spelling, 24 characters, and
    every target cell as wide as n - 1: the bound holds that file, with at
    most 8 n + 64 bytes to spare."""
    widest = -2.2250738585072014e-308
    assert len(json.dumps(widest)) == 24
    pairs = [[widest, widest]] * n
    text = json.dumps({"dim": n, "basis": [pairs] * n, "target_cells": [n - 1] * n,
                       "eigenvalues": pairs}) + "\n"
    assert len(text) <= iomod.device_file_bound(n) <= len(text) + 8 * n + 64


@pytest.mark.parametrize("n, pointers", [(1, 1), (3, 10), (9, 11), (64, 100), (5, 1001)])
def test_likelihood_file_bound_holds_the_longest_file(n, pointers, monkeypatch):
    """Every value at the longest "%.17g" spelling, 24 characters, in each
    of n rows of MAX_POINTERS readings: the bound holds that file. It
    reads every label at the width of the last one, so it spares at most
    that width per label."""
    monkeypatch.setattr(config, "MAX_POINTERS", pointers)
    widest = b"%.17g" % -2.2250738585072014e-308
    assert len(widest) == 24
    header = ",".join("alpha_%d" % r for r in range(pointers)) + "\n"
    text = header.encode() + (b",".join([widest] * pointers) + b"\n") * n
    spare = pointers * len(str(pointers - 1))
    assert len(text) <= iomod.likelihood_file_bound(n) <= len(text) + spare


def test_likelihood_round_trip(tmp_path):
    like = noisy_likelihood(5, 0.25)
    path = tmp_path / "like.csv"
    iomod.write_likelihood_csv(path, like)
    back = iomod.read_likelihood_csv(path, like.n_cells)
    assert_allclose(back.matrix, like.matrix, atol=1e-16)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(8, 4096), preset=st.sampled_from(["identity", "fourier"]),
       rows=st.lists(st.integers(0, 4095), min_size=1, max_size=4))
def test_preset_device_file_is_its_name(tmp_path, n, preset, rows):
    """A preset device's file is one line at any n, and reads back as that
    preset: the rows it forms are bit for bit the written device's."""
    dev = identity_device(n) if preset == "identity" else fourier_device(n)
    path = tmp_path / "device.json"
    iomod.write_device(path, dev)
    assert path.read_text() == '{"dim": %d, "preset": "%s"}\n' % (n, preset)
    back = iomod.read_device(path, n)
    assert back.preset == preset and back.dense is None
    i = np.array(rows) % n
    assert back.rows(i).tobytes() == dev.rows(i).tobytes()
    assert back.eigenvalues.tobytes() == dev.eigenvalues.tobytes()
    assert np.array_equal(back.target_cells, dev.target_cells)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(8, 4096),
       epsilon=st.one_of(st.none(), st.sampled_from([0.0, 0.1, 0.5]),
                         st.floats(0.0, 1.0, exclude_max=True)),
       readings=st.lists(st.integers(0, 4095), min_size=1, max_size=4))
def test_preset_likelihood_file_is_its_line(tmp_path, n, epsilon, readings):
    """The ideal likelihood (epsilon None) and a noisy one are written as
    their n and two values, two lines at any n, and read back as that
    preset: the rows it forms are bit for bit the written model's."""
    like = ideal_likelihood(n) if epsilon is None else noisy_likelihood(n, epsilon)
    path = tmp_path / "like.csv"
    iomod.write_likelihood_csv(path, like)
    assert path.read_text() == "n,on,off\n%d,%.17g,%.17g\n" % (n, like.on, like.off)
    back = iomod.read_likelihood_csv(path, n)
    assert back.dense is None and back.n == n
    r = np.array(readings) % n
    assert back.rows(r).tobytes() == like.rows(r).tobytes()


def _complex(re, im):
    """Complex array with exactly these parts, -0.0 included."""
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z


# entries that an orthonormality check cannot see next to a unit entry
NEGLIGIBLE = st.one_of(st.sampled_from(EDGE_FLOATS[:6]), st.floats(-1e-300, 1e-300))


@st.composite
def edge_devices(draw):
    """A unit phase per row at a drawn column, negligible floats elsewhere,
    and eigenvalues from every finite float: -0.0, subnormals and +-max
    float in every part they can hold."""
    dim = draw(st.integers(1, 6))
    cols, cells = draw(st.permutations(range(dim))), draw(st.permutations(range(dim)))
    parts = [draw(arrays(float, (2, dim), elements=NEGLIGIBLE)) for _ in range(dim)]
    basis = np.array([_complex(re, im) for re, im in parts])
    for i, j in enumerate(cols):
        theta = draw(st.floats(-np.pi, np.pi))
        basis[i, j] = complex(np.cos(theta), np.sin(theta))
    eigenvalues = _complex(*draw(arrays(float, (2, dim), elements=FINITE)))
    return build_device(basis, cells, eigenvalues)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_devices())
def test_device_round_trips_every_bit(tmp_path, dev):
    path = tmp_path / "device.json"
    iomod.write_device(path, dev)
    back = iomod.read_device(path, dev.dim)
    assert back.basis.tobytes() == dev.basis.tobytes()
    assert back.eigenvalues.tobytes() == dev.eigenvalues.tobytes()
    assert np.array_equal(back.target_cells, dev.target_cells)


@st.composite
def edge_likelihoods(draw):
    """Columns of signed zeros, subnormals and drawn floats, each closed to
    a sum of 1 by one entry at a drawn row."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    small = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 2.2250738585072014e-308)),
                      st.floats(0.0, 1.0 / rows))
    m = draw(arrays(float, (rows, cols), elements=small))
    for i in range(cols):
        r = draw(st.integers(0, rows - 1))
        m[r, i] = 0.0
        m[r, i] = 1.0 - m[:, i].sum()
    return LikelihoodModel(m)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_likelihoods())
def test_likelihood_round_trips_every_bit(tmp_path, like):
    path = tmp_path / "like.csv"
    iomod.write_likelihood_csv(path, like)
    assert iomod.read_likelihood_csv(path, like.n_cells).matrix.tobytes() == like.matrix.tobytes()


MINIMAL = """
[grid]
x_min = -10
x_max = 10
n = 128

[initial]
preset = gaussian

[evolution]
dt = 1e-3
t_final = 0.01
"""


def write_ini(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_config_defaults(tmp_path):
    cfg = RunConfig.load(write_ini(tmp_path, MINIMAL))
    assert cfg.grid().n == 128
    assert cfg["run", "seed"] == 0
    assert cfg["evolution", "node_floor"] == pytest.approx(1e-12)
    assert cfg["evolution", "snapshot_stride"] == 1 and cfg["run", "out"] == ""
    (ecfg,) = cfg.evolution_configs()
    assert ecfg.engine == "schrodinger"
    assert cfg.grid().boundary == "periodic"
    psi = cfg.initial_state()
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    # [evolution] boundary reaches the grid, and the state built on it
    hard = RunConfig.load(write_ini(tmp_path, MINIMAL + "boundary = hardwall\n", "hard.ini"))
    assert hard.grid().boundary == "hardwall"
    assert hard.initial_state().grid.boundary == "hardwall"


def test_config_missing_file():
    with pytest.raises(ConfigError):
        RunConfig.load("/nonexistent/run.ini")


def test_config_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.load(write_ini(tmp_path, MINIMAL + "\n[sampler]\nn_particle = 3\n"))
    with pytest.raises(ConfigError, match="unknown section"):
        RunConfig.load(write_ini(tmp_path, MINIMAL + "\n[output]\ndir = x\n"))


def test_config_missing_required(tmp_path):
    bad = MINIMAL.replace("t_final = 0.01", "")
    with pytest.raises(ConfigError, match="t_final"):
        RunConfig.load(write_ini(tmp_path, bad))


def test_config_choice_validation(tmp_path):
    bad = MINIMAL.replace("preset = gaussian", "preset = soliton")
    with pytest.raises(ConfigError, match="preset"):
        RunConfig.load(write_ini(tmp_path, bad))


def test_config_plane_wave_commensurability(tmp_path):
    good = MINIMAL.replace(
        "preset = gaussian", "preset = plane_wave\nk = %.17g" % (2.0 * np.pi / 20.0)
    )
    cfg = RunConfig.load(write_ini(tmp_path, good))
    assert cfg.initial_state().norm() == pytest.approx(1.0, abs=1e-12)
    bad = MINIMAL.replace("preset = gaussian", "preset = plane_wave\nk = 0.7")
    with pytest.raises(ConfigError, match="plane_wave"):
        RunConfig.load(write_ini(tmp_path, bad))


def test_config_eigenstate_presets(tmp_path):
    harm = MINIMAL.replace(
        "preset = gaussian", "preset = eigenstate\nwell = harmonic\nlevel = 1"
    ).replace("[evolution]", "[physics]\npotential = harmonic\n\n[evolution]")
    cfg = RunConfig.load(write_ini(tmp_path, harm))
    psi = cfg.initial_state()
    # level 1 is odd: amplitude vanishes at the center by symmetry
    mid = psi.amplitudes[63] + psi.amplitudes[64]
    assert abs(mid) < 1e-10
    box = MINIMAL.replace("preset = gaussian", "preset = eigenstate\nwell = box")
    psi_box = RunConfig.load(write_ini(tmp_path, box, "box.ini")).initial_state()
    assert psi_box.norm() == pytest.approx(1.0, abs=1e-12)
    # the packet keys are read only by the gaussian preset
    stale = box.replace("well = box", "well = box\nsigma = 0\nmu = inf\nk = nan")
    psi_stale = RunConfig.load(write_ini(tmp_path, stale, "stale.ini")).initial_state()
    assert np.array_equal(psi_stale.amplitudes, psi_box.amplitudes)


def test_config_seed_and_epsilon_ranges(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.load(write_ini(tmp_path, MINIMAL + "\n[run]\nseed = -3\n"))
    with pytest.raises(ConfigError, match="epsilon"):
        RunConfig.load(write_ini(tmp_path, MINIMAL + "\n[amplify]\nepsilon = 1.5\n"))


def test_seed_override_takes_the_seed_rule(tmp_path):
    path = write_ini(tmp_path, MINIMAL + "\n[run]\nseed = x\n")
    assert RunConfig.load(path, seed=2**64 - 1)["run", "seed"] == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match=r"\[run\] seed must be an integer >= 0"):
            RunConfig.load(path, seed=seed)


@pytest.mark.parametrize("key, value, message", [
    (("grid", "n"), "7", "[grid] n must be an integer >= 8, got '7'"),
    (("physics", "hbar"), "0", "[physics] hbar must be a finite number > 0, got '0'"),
    (("physics", "omega"), "inf", "[physics] omega must be a finite number, got 'inf'"),
    (("evolution", "t_final"), "-1", "[evolution] t_final must be a finite number >= 0, got '-1'"),
    (("amplify", "epsilon"), "1", "[amplify] epsilon must be a finite number >= 0 and < 1, got '1'"),
    (("device", "n_trials"), "1.5",
     "[device] n_trials must be an integer >= 1 and < 4000000, got '1.5'"),
])
def test_rule_messages(key, value, message):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(MINIMAL)
    cp.read_dict({"physics": {"potential": "harmonic"}, key[0]: {key[1]: value}})
    with pytest.raises(ConfigError) as err:
        cfg = RunConfig.from_parser(cp)
        cfg[key]
    assert str(err.value) == message


def test_harmonic_potential_must_be_finite_on_the_grid(tmp_path):
    harm = MINIMAL.replace("[evolution]", "[physics]\npotential = harmonic\n\n[evolution]")
    for extra in ("omega = 1e200", "center = 1e300"):
        cfg = RunConfig.load(write_ini(tmp_path, harm.replace("potential = harmonic",
                                                              "potential = harmonic\n" + extra)))
        with pytest.raises(ConfigError, match="harmonic potential"):
            cfg.params()
    # a key the command does not read cannot fail it
    free = RunConfig.load(write_ini(tmp_path, MINIMAL + "\n[physics]\nomega = inf\n"))
    assert free.params().potential_on(free.grid()).max() == 0.0


NUMBER_KEYS = sorted((sect, key) for sect, keys in _SCHEMA.items()
                     for key, (_, rule) in keys.items() if isinstance(rule, Num))
FUZZ_VALUES = ["nan", "inf", "-inf", "-1", "0", "1.5", "1e300", "1e-300", "x"]


@settings(max_examples=400, deadline=None)
@given(numbers=st.dictionaries(st.sampled_from(NUMBER_KEYS), st.sampled_from(FUZZ_VALUES),
                               min_size=1, max_size=3),
       preset=st.sampled_from(_SCHEMA["initial"]["preset"][1]),
       well=st.sampled_from(_SCHEMA["initial"]["well"][1]),
       potential=st.sampled_from(_SCHEMA["physics"]["potential"][1]))
def test_config_fuzz_raises_only_config_error(numbers, preset, well, potential):
    """Loading, reading any number and building the grid, params, initial
    state and evolution config raise nothing but ConfigError. No drawn
    value parses as a large grid n, so nothing allocates at scale."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(MINIMAL)
    cp.read_dict({"initial": {"preset": preset, "well": well},
                  "physics": {"potential": potential}})
    for (sect, key), value in numbers.items():
        cp.read_dict({sect: {key: value}})
    try:
        cfg = RunConfig.from_parser(cp)
    except ConfigError:
        return
    steps = [lambda where=where: cfg[where] for where in NUMBER_KEYS]
    for step in steps + [cfg.grid, cfg.params, cfg.initial_state, cfg.evolution_configs]:
        try:
            step()
        except ConfigError:
            pass


def test_resolved_ini_deterministic(tmp_path):
    text_a = RunConfig.load(write_ini(tmp_path, MINIMAL, "a.ini")).resolved_ini()
    text_b = RunConfig.load(
        write_ini(tmp_path, MINIMAL + "\n[run]\nout = /somewhere/else\n", "b.ini")
    ).resolved_ini()
    assert text_a == text_b  # output location excluded from provenance
    assert "node_floor = 1e-12" in text_a
    assert "engine = schrodinger" in text_a


def _documented_rows():
    """(section, backticked keys, default and notes) per row of the README's
    configuration reference table; a row with an empty section cell
    continues the section above."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().split("### Configuration reference", 1)[1].splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows, sect = [], None
    for row in itertools.takewhile(lambda line: line.startswith("|"), lines[header + 2:]):
        cells = [c.strip() for c in row.strip("|").split("|")]
        if cells[0]:
            sect = re.fullmatch(r"`\[(\w+)\]`", cells[0]).group(1)
        rows.append((sect, re.findall(r"`(\w+)`", cells[1]), " | ".join(cells[2:])))
    return rows


def test_readme_config_table_matches_schema():
    """Every schema key has a row in the README table and every row names a
    schema key, so neither can change without the other."""
    keys = {}
    for sect, row_keys, _ in _documented_rows():
        keys.setdefault(sect, set()).update(row_keys)
    assert keys == {sect: set(keys) for sect, keys in _SCHEMA.items()}


def test_readme_config_table_states_each_rule():
    """A number key's row states its rule as the schema words it, and a
    choice key's row names every choice."""
    for sect, row_keys, text in _documented_rows():
        for key in row_keys:
            rule = _SCHEMA[sect][key][1]
            if isinstance(rule, Num):
                assert str(rule) in text, (sect, key)
            elif rule is not None:
                assert all(f"`{v}`" in text for v in rule), (sect, key)
