"""Byte-identity of the fast writers against their plain formulations.

Each reference below is the straightforward encoding the file format is
defined by; the writers must produce exactly the same bytes.
"""

import json
import os
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import edsim.io as iomod
from edsim import (
    EvolutionConfig,
    EvolutionTrace,
    ExperimentLog,
    Grid1D,
    HydroState,
    LikelihoodModel,
    PhysicalParams,
    WaveFunction,
    build_device,
    device_state,
    end_to_end,
    evolve,
    fourier_device,
    free_gaussian,
    identity_device,
    ideal_likelihood,
    noisy_likelihood,
)
from edsim.seeding import stream_rng
from oracles import experiment_log_text


def _c(z):
    return [float(np.real(z)), float(np.imag(z))]


def ref_device(dev) -> str:
    rec = {
        "dim": dev.dim,
        "basis": [[_c(v) for v in row] for row in dev.basis],
        "target_cells": [int(c) for c in dev.target_cells],
        "eigenvalues": [_c(v) for v in dev.eigenvalues],
    }
    return json.dumps(rec) + "\n"


def ref_likelihood(like) -> str:
    m = like.matrix
    lines = [",".join("alpha_%d" % r for r in range(m.shape[0]))]
    for i in range(m.shape[1]):
        lines.append(",".join(format(float(v), ".17g") for v in m[:, i]))
    return "\n".join(lines) + "\n"


def ref_ensemble_csv(snapshots) -> str:
    rows = [(pid, t, x) for t, xs in snapshots for pid, x in enumerate(xs)]
    lines = ["particle_id,t,x"]
    lines.extend("%d,%s,%s" % (pid, iomod._f(t), iomod._f(x)) for pid, t, x in rows)
    return "\n".join(lines) + "\n"


def ref_snapshots(grid, ts, rhos, phis) -> str:
    x = grid.cells
    lines = [
        '{"t": %s, "x": [%s], "rho": [%s], "phi": [%s]}' % (
            iomod._f(t),
            ", ".join(iomod._f(v) for v in x),
            ", ".join(iomod._f(v) for v in rho),
            ", ".join(iomod._f(v) for v in phi),
        )
        for t, rho, phi in zip(ts, rhos, phis)
    ]
    return "\n".join(lines) + "\n"


def random_state(dim, seed=0):
    rng = stream_rng(seed, "state")
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def hand_likelihood():
    """Columns sum to 1 and hold -0.0 and the smallest subnormal."""
    tiny = 5e-324
    return LikelihoodModel(np.array([
        [1.0, -0.0, tiny, 0.1],
        [-0.0, 0.75, 0.0, 0.2],
        [0.0, 0.25, 1.0, 0.3],
        [0.0, 0.0, -0.0, 0.4],
    ]))


LIKELIHOODS = {
    "ideal": lambda: ideal_likelihood(32),
    "noisy": lambda: noisy_likelihood(32, 0.1),
    "hand": hand_likelihood,
}


@pytest.mark.parametrize("name", sorted(LIKELIHOODS))
def test_likelihood_csv_matches_reference(name, tmp_path):
    like = LIKELIHOODS[name]()
    path = tmp_path / "like.csv"
    iomod.write_likelihood_csv(path, like)
    assert path.read_text() == ref_likelihood(like)
    back = iomod.read_likelihood_csv(path)
    assert np.array_equal(back.matrix.view(np.uint64), like.matrix.view(np.uint64))


def test_likelihood_csv_keeps_negative_zero(tmp_path):
    path = tmp_path / "like.csv"
    iomod.write_likelihood_csv(path, hand_likelihood())
    first = path.read_text().splitlines()[1]
    assert first == "1,-0,0,0"
    assert "4.9406564584124654e-324" in path.read_text()


@pytest.mark.parametrize("dim, like, prior", [
    (16, ideal_likelihood(16), None),
    (16, noisy_likelihood(16, 0.3), None),
    (16, noisy_likelihood(16, 0.3), np.full(16, 1.0 / 16)),
    (4, hand_likelihood(), np.array([0.4, 0.3, 0.2, 0.1])),
])
def test_experiment_log_matches_reference(dim, like, prior, tmp_path):
    log = end_to_end(random_state(dim, 3), identity_device(dim), like, 2000, seed=9,
                     prior=prior)
    assert len(log.rows) < len(log.observed_r)  # readings repeat across trials
    path = tmp_path / "experiment.ndjson"
    iomod.write_experiment_log(path, log)
    assert path.read_text() == experiment_log_text(log)


# -0.0, subnormals, values that need all 17 digits, and the spellings json
# has for the non-finite floats
POSTERIOR_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.0**-1060, -2.0**-1030, 0.1 + 0.2, 1.0 / 3.0,
                     1.0, 1e300, np.nan, np.inf, -np.inf]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def experiment_logs(draw):
    """Logs whose rows draw from a small pool of floats, so that rows share
    values, down to one row and one trial."""
    n_rows = draw(st.integers(1, 5))
    n_cells = draw(st.integers(1, 6))
    pool = draw(st.lists(POSTERIOR_FLOATS, min_size=1, max_size=8))
    rows = np.array(draw(st.lists(st.sampled_from(pool), min_size=n_rows * n_cells,
                                  max_size=n_rows * n_cells))).reshape(n_rows, n_cells)
    n_trials = draw(st.integers(1, 8))

    def ints(hi):
        return np.array(draw(st.lists(st.integers(0, hi), min_size=n_trials,
                                      max_size=n_trials)), dtype=np.intp)

    return ExperimentLog(true_i=ints(n_cells - 1), observed_r=ints(n_cells - 1),
                         rows=rows, row_of=ints(n_rows - 1), map_i=ints(n_cells - 1))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(experiment_logs())
def test_experiment_log_matches_reference_on_generated_logs(tmp_path, log):
    path = tmp_path / "experiment.ndjson"
    iomod.write_experiment_log(path, log)
    assert path.read_text() == experiment_log_text(log)


def test_experiment_log_formats_each_distinct_float_once(tmp_path, monkeypatch):
    """The writer hands json.dumps one float per distinct bit pattern of the
    posterior rows, not one per entry: rows of readings whose Born prior is
    tiny share their values (here 3,537 distinct floats in 13,696 entries)."""
    formatted = []

    def dumps(obj, **kwargs):
        formatted.extend(v for v in obj if isinstance(v, float))
        return json.dumps(obj, **kwargs)

    g = Grid1D(-10.0, 10.0, 128)
    psi = WaveFunction(g, free_gaussian(g.cells, k0=1.0)).normalized()
    log = end_to_end(device_state(psi), fourier_device(128), noisy_likelihood(128, 0.1),
                     2000, seed=9)
    monkeypatch.setattr(iomod, "json", types.SimpleNamespace(dumps=dumps))
    iomod.write_experiment_log(tmp_path / "experiment.ndjson", log)
    distinct = len(np.unique(log.rows.view(np.uint64)))
    assert len(formatted) == distinct < log.rows.size


def _complex(re, im):
    """Complex array with exactly these parts, -0.0 included."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def hand_device():
    """A unitary 4 x 4 basis holding -0.0, the smallest subnormal, values
    that need all 17 digits, and (re, im) pairs repeated across rows."""
    a = 0.1 + 0.2
    b = float(np.sqrt(1.0 - a * a))
    basis = _complex(
        [[a, 0.0, -0.0, 0.0], [0.0, a, 0.0, -0.0], [5e-324, -0.0, a, b], [-0.0, 0.0, -b, a]],
        [[0.0, b, -0.0, 0.0], [b, 0.0, 0.0, -0.0], [0.0, -0.0, 0.0, 0.0], [0.0, 5e-324, 0.0, -0.0]])
    eigenvalues = _complex([a, 1.0 / 3.0, -0.0, a], [-0.0, 5e-324, 1e300, -0.0])
    return build_device(basis, [3, 0, 2, 1], eigenvalues)


def random_unitary_device(dim=12, seed=5):
    rng = stream_rng(seed, "state")
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return build_device(q, rng.permutation(dim), rng.normal(size=dim))


def check_device_file(dev, path):
    iomod.write_device(path, dev)
    assert path.read_text() == ref_device(dev)
    back = iomod.read_device(path)
    assert np.array_equal(back.basis, dev.basis)
    assert np.array_equal(back.eigenvalues, dev.eigenvalues)
    assert np.array_equal(back.target_cells, dev.target_cells)


def test_device_matches_reference_and_round_trips(tmp_path):
    check_device_file(fourier_device(24), tmp_path / "device.json")


DEVICES = {
    "fourier8": lambda: fourier_device(8),
    "fourier64": lambda: fourier_device(64),
    "identity16": lambda: identity_device(16),
    "random_unitary": random_unitary_device,
    "hand": hand_device,
}


@pytest.mark.parametrize("name", sorted(DEVICES))
def test_more_devices_match_reference_and_round_trip(name, tmp_path):
    check_device_file(DEVICES[name](), tmp_path / "device.json")


def test_hand_device_keeps_special_values(tmp_path):
    path = tmp_path / "device.json"
    iomod.write_device(path, hand_device())
    text = path.read_text()
    assert text.startswith('{"dim": 4, "basis": [[[0.30000000000000004, 0.0], [0.0, 0.95')
    assert "[5e-324, 0.0], [-0.0, -0.0]" in text
    assert text.endswith('"target_cells": [3, 0, 2, 1], "eigenvalues": [[0.30000000000000004, '
                         '-0.0], [0.3333333333333333, 5e-324], [-0.0, 1e+300], '
                         '[0.30000000000000004, -0.0]]}\n')


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_device_writer_streams_in_bounded_memory(tmp_path):
    """The streamed writer peaks at no more than half of what one json.dumps
    over the nested [re, im] lists needs for the same device."""
    dev = fourier_device(256)
    streamed = _peak_bytes(lambda: iomod.write_device(tmp_path / "device.json", dev))
    nested = _peak_bytes(lambda: ref_device(dev))
    assert streamed <= nested / 2


def test_atomic_write_streams_chunks(tmp_path):
    path = tmp_path / "chunks.txt"
    iomod.atomic_write(path, (f"line {k}\n" for k in range(3)))
    assert path.read_text() == "line 0\nline 1\nline 2\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=["022", "077", "002"])
def test_atomic_write_respects_umask(umask, mode, tmp_path):
    old = os.umask(umask)
    try:
        iomod.atomic_write(tmp_path / "out.txt", "x\n")
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "out.txt").st_mode & 0o777 == mode


# 0.1 + 0.2 and 1/3 need all 17 significant digits to round-trip
T17 = (0.1 + 0.2, 1.0 / 3.0)
ENSEMBLES = {
    "one_particle": [(0.0, [-0.0]), (T17[0], [5e-324])],
    "fourteen_particles": [(t, np.linspace(-3.0, 3.0, 14) + k / 7.0)
                           for k, t in enumerate((0.0, *T17))],
    "special_values": [
        (-0.0, [-0.0, 5e-324, -5e-324, 0.1, -1.25, 1e300, np.inf, -np.inf, np.nan,
                2.0**-1074, 1.0 / 3.0, -(0.1 + 0.2)]),
        (T17[1], np.arange(12) * -0.0),
    ],
    "changing_counts": [(0.0, np.arange(12) * 0.1), (0.5, []), (1.0, [7.0])],
    "no_snapshots": [],
}


@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_ensemble_csv_matches_reference(name, tmp_path):
    snapshots = ENSEMBLES[name]
    path = tmp_path / "ensemble.csv"
    # a generator: the writer reads each pair once, in order
    iomod.write_ensemble_csv(path, (pair for pair in snapshots))
    assert path.read_text() == ref_ensemble_csv(snapshots)


def test_ensemble_csv_blocks_match_reference(tmp_path, monkeypatch):
    """With blocks of 3 particles, snapshots of 7, 3, 10 and 0 particles
    span block boundaries; ids run on across them, and the bytes are the
    reference's."""
    monkeypatch.setattr(iomod, "ENSEMBLE_BLOCK", 3)
    snapshots = [(0.0, np.arange(7) * 0.1), (T17[0], [-0.0, 5e-324, 1.0]),
                 (T17[1], np.arange(10) / 3.0), (1.0, [])]
    path = tmp_path / "ensemble.csv"
    iomod.write_ensemble_csv(path, iter(snapshots))
    assert path.read_text() == ref_ensemble_csv(snapshots)


def test_ensemble_csv_is_one_block_per_snapshot_at_4000_particles(tmp_path, monkeypatch):
    """The particles benchmark's 4000-particle snapshots are each one chunk."""
    chunks = []
    monkeypatch.setattr(iomod, "atomic_write", lambda path, text: chunks.extend(text))
    iomod.write_ensemble_csv(tmp_path / "e.csv", [(0.0, np.zeros(4000)), (1.0, np.ones(4000))])
    assert len(chunks) == 1 + 2


def test_ensemble_writer_peak_does_not_grow_with_particles(tmp_path):
    """The writer formats a snapshot in fixed blocks, so its peak on one
    snapshot of 8 blocks is within 64 KB of its peak on 4 blocks; text for
    a whole snapshot would add about 190 B a particle, 6 MB here."""
    n = 4 * iomod.ENSEMBLE_BLOCK
    peaks = []
    for count in (n, 2 * n):
        xs = np.random.default_rng(count).normal(size=count)
        path = tmp_path / f"e{count}.csv"
        peaks.append(_peak_bytes(lambda: iomod.write_ensemble_csv(path, [(T17[0], xs)])))
        assert path.stat().st_size > count * 20
    assert peaks[1] < peaks[0] + 65536, peaks


def hand_trace():
    """Two snapshots on 8 cells holding -0.0, subnormals and 17-digit values."""
    g = Grid1D(-0.1 - 0.2, 1.0 / 3.0, 8)
    rho = np.array([-0.0, 5e-324, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    rho = rho / (rho.sum() * g.dx)
    phi = np.array([-0.0, -5e-324, 0.1 + 0.2, 1.0 / 3.0, -1e300, 7.0, 0.0, -2.5])
    snaps = [(0.0, HydroState(g, rho, phi)), (0.1 + 0.2, HydroState(g, rho[::-1], -phi))]
    return EvolutionTrace(engine="madelung", grid=g, snapshots=snaps)


def small_trace():
    g = Grid1D(-8.0, 8.0, 64)
    psi = WaveFunction(g, free_gaussian(g.cells)).normalized()
    return evolve(psi, PhysicalParams(),
                  EvolutionConfig(dt=1e-3, t_final=0.01, snapshot_stride=5))


def special_fields():
    """Raw field arrays, past what a trace holds: -0.0, subnormals, nan,
    +-inf and 17-digit values in every column, and no trace at all."""
    g = Grid1D(-0.1 - 0.2, 1.0 / 3.0, 12)
    rho = np.array([-0.0, 5e-324, -5e-324, 2.0**-1074, np.nan, np.inf, -np.inf,
                    0.1 + 0.2, 1.0 / 3.0, 1e300, -1.25, 0.0])
    return g, [-0.0, 0.1 + 0.2, np.nan], [rho, rho[::-1], -rho], [-rho, rho * 3.0, rho]


@pytest.mark.parametrize("make", [hand_trace, small_trace, special_fields],
                         ids=["hand", "evolved", "special"])
def test_snapshots_match_reference(make, tmp_path):
    fields = make()
    if isinstance(fields, EvolutionTrace):
        fields = (fields.grid, *fields.field_arrays())
    path = tmp_path / "trace.ndjson"
    iomod.write_snapshots(path, *fields)
    assert path.read_text() == ref_snapshots(*fields)
