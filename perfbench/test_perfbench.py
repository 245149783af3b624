"""Self-tests of the benchmark. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import re
import shutil
from pathlib import Path

import pytest

import edsim.cli as cli
from layers import layer_metrics
from tracer import Tracer, install
from workloads import WORKLOADS, Tally, Workload, tree_digest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# a small `particles`: both samplers, hard walls, six snapshots
TINY_INI = """\
[grid]
x_min = -10
x_max = 10
n = 64

[initial]
preset = gaussian
k = 1

[evolution]
boundary = hardwall
dt = 2e-3
t_final = 0.02
snapshot_stride = 2
node_floor = 0

[sampler]
mode = both
n_particles = 300
dt = 1e-3
"""


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The tiny workload and one untraced pass of it under <tmp>/pass0."""
    tmp = tmp_path_factory.mktemp("tiny")
    ini = tmp / "tiny.ini"
    ini.write_text(TINY_INI)
    workload = Workload("tiny", ("evolve", "trajectories"), ini)
    codes = run_commands(workload, tmp / "pass0")
    return workload, tmp, codes


def run_commands(workload, out, tracer=None):
    codes = {}
    for cmd in workload.commands:
        argv = [cmd, "--config", str(workload.ini), "--out", str(out / cmd), "--seed", "7"]
        codes[cmd] = tracer.call("cli." + cmd, cli.main, argv) if tracer else cli.main(argv)
    return codes


def test_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_clean_pass_scores_ok(tiny):
    workload, tmp, codes = tiny
    tally = Tally(workload)
    tally.add_pass(codes, tmp / "pass0")
    assert (tally.attempted, tally.failed) == (2, 0), tally.problems
    assert tally.ok_frac == 1.0


def _planted(tiny, name, plant):
    workload, tmp, codes = tiny
    shutil.copytree(tmp / "pass0", tmp / name)
    plant(tmp / name / "trajectories")
    tally = Tally(workload)
    tally.add_pass(codes, tmp / "pass0")
    tally.add_pass(codes, tmp / name)
    return tally


def test_ks_pass_false_raises_fail_frac(tiny):
    def plant(out):
        path = out / "ks_current_flow.json"
        path.write_text(path.read_text().replace('"pass": true', '"pass": false'))

    tally = _planted(tiny, "ks_false", plant)
    assert tally.failed == 1 and tally.ok_frac == 0.75
    assert any("contradicts" in p for p in tally.problems)


def test_flipped_byte_between_passes_raises_fail_frac(tiny):
    def plant(out):
        path = out / "ensemble_entropic_diffusion.csv"
        data = bytearray(path.read_bytes())
        data[-2] = ord("1") if data[-2] != ord("1") else ord("2")  # last digit of the last x
        path.write_bytes(bytes(data))

    tally = _planted(tiny, "flipped", plant)
    assert tally.failed == 1 and tally.ok_frac == 0.75
    assert any("differ from the first pass" in p for p in tally.problems)


def test_nonzero_exit_counts_as_failure(tiny):
    workload, tmp, codes = tiny
    tally = Tally(workload)
    tally.add_pass({**codes, "trajectories": 3}, tmp / "pass0")
    assert tally.failed == 1


def test_tracer_restores_every_patched_attribute():
    tracer = Tracer()
    install(tracer)
    patched = list(tracer._saved)
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is not original
    tracer.restore()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


def test_traced_pass_matches_untraced_and_reports_every_metric(tiny):
    workload, tmp, codes = tiny
    tracer = Tracer()
    install(tracer)
    try:
        traced_codes = run_commands(workload, tmp / "traced", tracer)
    finally:
        tracer.restore()
    assert traced_codes == codes
    for cmd in workload.commands:
        assert tree_digest(tmp / "traced" / cmd) == tree_digest(tmp / "pass0" / cmd)

    spans = json.loads(json.dumps(tracer.spans))  # the form run.py reads back
    m = layer_metrics(spans, import_s=1.0, distinct_readings=0)
    declared = {d["name"] for d in SPEC["per_layer"]}
    assert set(m) | {"trace.overhead_s"} == declared
    # 6 snapshots per evolve; 5 advances, each rebuilding all 6 fields
    assert m["trajectories.advance_ensemble.calls"] == 2 * 5
    assert m["dynamics.field_arrays.calls"] == 2 + 2 * 5
    assert m["state.to_hydro.calls"] == 6 * (4 + 2 * 5)
    assert m["io.write_ensemble_csv_bytes"] == sum(
        (tmp / "pass0" / "trajectories" / f"ensemble_{mode}.csv").stat().st_size
        for mode in ("current_flow", "entropic_diffusion"))
