"""Byte-identity of the fast writers against their plain formulations.

Each reference below is the straightforward encoding the file format is
defined by; the writers must produce exactly the same bytes.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest

import edsim.io as iomod
from edsim import (
    EvolutionConfig,
    EvolutionTrace,
    Grid1D,
    HydroState,
    LikelihoodModel,
    PhysicalParams,
    WaveFunction,
    build_device,
    end_to_end,
    evolve,
    fourier_device,
    free_gaussian,
    identity_device,
    ideal_likelihood,
    noisy_likelihood,
)
from edsim.seeding import stream_rng


def ref_experiment_log(log) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in log.records())


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


def ref_ensemble_csv(times, positions) -> str:
    rows = [(pid, t, x) for t, xs in zip(times, positions) for pid, x in enumerate(xs)]
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
    assert path.read_text() == ref_experiment_log(log)


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
    "one_particle": ([0.0, T17[0]], [[-0.0], [5e-324]]),
    "fourteen_particles": (
        [0.0, T17[0], T17[1]],
        [np.linspace(-3.0, 3.0, 14) + k / 7.0 for k in range(3)],
    ),
    "special_values": ([-0.0, T17[1]], [
        [-0.0, 5e-324, -5e-324, 0.1, -1.25, 1e300, np.inf, -np.inf, np.nan, 2.0**-1074,
         1.0 / 3.0, -(0.1 + 0.2)],
        np.arange(12) * -0.0,
    ]),
    "changing_counts": ([0.0, 0.5, 1.0], [np.arange(12) * 0.1, [], [7.0]]),
    "no_snapshots": ([], []),
}


@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_ensemble_csv_matches_reference(name, tmp_path):
    times, positions = ENSEMBLES[name]
    path = tmp_path / "ensemble.csv"
    iomod.write_ensemble_csv(path, times, positions)
    assert path.read_text() == ref_ensemble_csv(times, positions)


def test_ensemble_csv_rejects_unpaired_times(tmp_path):
    with pytest.raises(ValueError):
        iomod.write_ensemble_csv(tmp_path / "e.csv", [0.0, 1.0], [[0.5]])
    assert list(tmp_path.iterdir()) == []


def hand_trace():
    """Two snapshots on 8 cells holding -0.0, subnormals and 17-digit values."""
    g = Grid1D(-0.1 - 0.2, 1.0 / 3.0, 8)
    rho = np.array([-0.0, 5e-324, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    rho = rho / (rho.sum() * g.dx)
    phi = np.array([-0.0, -5e-324, 0.1 + 0.2, 1.0 / 3.0, -1e300, 7.0, 0.0, -2.5])
    snaps = [(0.0, HydroState(g, rho, phi)), (0.1 + 0.2, HydroState(g, rho[::-1], -phi))]
    return EvolutionTrace(engine="madelung", grid=g, snapshots=snaps,
                          hydro=[h for _, h in snaps])


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
