#!/usr/bin/env python3
"""Check that this checkout writes what another checkout writes, byte for byte.

Usage, from any directory:

    python3 scripts/compare_outputs.py BASE_CHECKOUT [--case NAME ...] [--seed N ...]

Each case runs its commands through `python -m edsim.cli` once with
PYTHONPATH at BASE_CHECKOUT/src and once at this checkout's src, on the same
INI file and seed, each side in a fresh directory with the same relative
--out. Output trees, stdout, stderr and exit codes must match. Every
difference is printed, and any difference exits 1. A file whose text
matches once every number in it is masked is reported with how many of its
numbers differ and the largest absolute and relative change among them.

Cases (default: all, at seed 11):
  engines, particles, readout   the perfbench workloads, read as they are
  engines_harmonic              engines in the harmonic potential between hard
                                walls, to t_final 0.25 with snapshot_stride 200
  periodic                      particles with periodic walls and node_floor 1e-9
  madelung                      particles on the density-phase engine
  both_hardwall                 particles with engine = both on hard walls
  readout_identity              readout with the identity device, the ideal
                                likelihood and a uniform prior
  readout_files                 readout, then readout again with the device
                                and likelihood files the first pass wrote,
                                which name their presets
  readout_flat                  readout with the identity device and the
                                noisy likelihood at epsilon 511/512, where
                                its two values are both 1/512
  readout_dense                 readout on a 512-cell device.json and
                                likelihood.csv spelled entry by entry: a
                                unitary basis (complex QR) with permuted
                                cells, and a column-stochastic likelihood
The madelung and both_hardwall cases step at dt 5e-4 to t_final 0.2,
inside the density-phase bound. readout_files' second pass writes to
out/reread_measure and out/reread_amplify. readout_dense's files are
written into the case folder once, with numpy alone from a fixed seed,
so they do not depend on either checkout.
"""

import argparse
import configparser
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads"

# case -> (workload INI, commands, overrides by section[, second-pass overrides])
CASES = {
    "engines": ("engines", ("evolve",), {}),
    "engines_harmonic": ("engines", ("evolve",),
                         {"physics": {"potential": "harmonic"},
                          "evolution": {"boundary": "hardwall", "t_final": "0.25",
                                        "snapshot_stride": "200"}}),
    "particles": ("particles", ("evolve", "trajectories"), {}),
    "readout": ("readout", ("measure", "amplify"), {}),
    "periodic": ("particles", ("evolve", "trajectories"),
                 {"evolution": {"boundary": "periodic", "node_floor": "1e-9"}}),
    "madelung": ("particles", ("evolve", "trajectories"),
                 {"evolution": {"engine": "madelung", "dt": "5e-4", "t_final": "0.2"}}),
    "both_hardwall": ("particles", ("evolve", "trajectories"),
                      {"evolution": {"engine": "both", "boundary": "hardwall", "dt": "5e-4",
                                     "t_final": "0.2"}}),
    "readout_identity": ("readout", ("measure", "amplify"),
                         {"device": {"preset": "identity"},
                          "amplify": {"likelihood": "ideal", "prior": "uniform"}}),
    "readout_files": ("readout", ("measure", "amplify"), {},
                      {"device": {"preset": "file",
                                  "path": os.path.join("out", "measure", "device.json")},
                       "amplify": {"likelihood": "file",
                                   "path": os.path.join("out", "amplify", "likelihood.csv")}}),
    "readout_flat": ("readout", ("measure", "amplify"),
                     {"device": {"preset": "identity"},
                      "amplify": {"likelihood": "noisy", "epsilon": "0.998046875",
                                  "prior": "born"}}),
    # each side runs in a folder inside the case folder that holds the files
    "readout_dense": ("readout", ("measure", "amplify"),
                      {"device": {"preset": "file", "path": os.path.join(os.pardir, "device.json")},
                       "amplify": {"likelihood": "file",
                                   "path": os.path.join(os.pardir, "likelihood.csv")}}),
}
REREAD = "reread_"


def write_ini(name, overrides, path):
    """The workload INI: the workload file itself, or a copy with overrides
    written to path."""
    source = WORKLOADS / f"{name}.ini"
    if not overrides:
        return source
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(source)
    cp.read_dict(overrides)
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def write_dense_files(folder, n=512, seed=20):
    """device.json and likelihood.csv for n cells in folder, in the layouts
    of a file device and a file likelihood: the unitary Q of the QR of a
    complex normal matrix, with permuted target cells and normal complex
    eigenvalues, and a matrix of uniform draws with each column scaled to
    sum to 1. Every float is spelled by repr, which round-trips it."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    eigenvalues = rng.normal(size=n) + 1j * rng.normal(size=n)
    device = {"dim": n, "basis": np.stack([q.real, q.imag], axis=-1).tolist(),
              "target_cells": rng.permutation(n).tolist(),
              "eigenvalues": np.stack([eigenvalues.real, eigenvalues.imag], axis=-1).tolist()}
    Path(folder, "device.json").write_text(json.dumps(device) + "\n")
    likelihood = rng.random((n, n))
    likelihood /= likelihood.sum(axis=0)
    lines = [",".join("alpha_%d" % r for r in range(n))]
    lines.extend(",".join(map(repr, column)) for column in likelihood.T.tolist())
    Path(folder, "likelihood.csv").write_text("\n".join(lines) + "\n")


def passes(case, folder):
    """[(INI path, commands, out prefix)] of the case: one pass, or two when
    the case reads back what its first pass wrote."""
    name, commands, overrides, *second = CASES[case]
    if case == "readout_dense":
        write_dense_files(folder)
    runs = [(write_ini(name, overrides, Path(folder) / f"{case}.ini"), commands, "")]
    if second:
        runs.append((write_ini(name, second[0], Path(folder) / f"{REREAD}{case}.ini"),
                     commands, REREAD))
    return runs


def run_side(checkout, runs, seed, folder):
    """{out name: (exit code, stdout, stderr)} and {relative path: bytes} of
    one checkout's run in folder; each command writes to out/<prefix><command>."""
    env = {k: v for k, v in os.environ.items() if k != "EDSIM_OUT"}
    env["PYTHONPATH"] = str(Path(checkout).resolve() / "src")
    results = {}
    for ini, commands, prefix in runs:
        for cmd in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "edsim.cli", cmd, "--config", str(ini),
                 "--out", os.path.join("out", prefix + cmd), "--seed", str(seed)],
                cwd=folder, env=env, capture_output=True, timeout=600)
            results[prefix + cmd] = (proc.returncode, proc.stdout, proc.stderr)
    out = Path(folder) / "out"
    tree = {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}
    return results, tree


# a decimal number as the writers spell it: "%.17g", repr and integers
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def number_changes(base, this):
    """How two file texts differ in their numbers: (numbers that differ,
    numbers in this, largest absolute change, largest relative change), or
    None when the texts differ elsewhere too. Compared line by line, so no
    list of a whole file's numbers is built."""
    base_lines, lines = base.split(b"\n"), this.split(b"\n")
    if len(base_lines) != len(lines):
        return None
    changed = total = 0
    big_abs = big_rel = 0.0
    for b_line, line in zip(base_lines, lines):
        numbers = NUMBER.findall(line)
        total += len(numbers)
        if b_line == line:
            continue
        if NUMBER.sub(b"0", b_line) != NUMBER.sub(b"0", line):
            return None
        for b_text, text in zip(NUMBER.findall(b_line), numbers):
            if b_text != text:
                a, b = float(b_text), float(text)
                changed += 1
                big_abs = max(big_abs, abs(a - b))
                scale = max(abs(a), abs(b))
                big_rel = max(big_rel, abs(a - b) / scale if scale else 0.0)
    return changed, total, big_abs, big_rel


def differences(label, base, this):
    """One line per difference between two run_side results."""
    (base_runs, base_tree), (runs, tree) = base, this
    lines = []
    for cmd, (code, out, err) in runs.items():
        b_code, b_out, b_err = base_runs[cmd]
        if code != b_code:
            lines.append(f"{label} {cmd}: exit code {b_code} in base, {code} here")
        if out != b_out:
            lines.append(f"{label} {cmd}: stdout differs")
        if err != b_err:
            lines.append(f"{label} {cmd}: stderr differs")
    for path in sorted(base_tree.keys() | tree.keys()):
        if path not in tree:
            lines.append(f"{label}: {path} only in base")
        elif path not in base_tree:
            lines.append(f"{label}: {path} only here")
        elif tree[path] != base_tree[path]:
            moved = number_changes(base_tree[path], tree[path])
            lines.append(f"{label}: {path} differs" + (
                "" if moved is None else ": %d of %d numbers, by at most %.3g absolute, "
                "%.3g relative" % moved))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="the other checkout (its src/ holds edsim)")
    ap.add_argument("--case", nargs="+", choices=sorted(CASES), default=list(CASES))
    ap.add_argument("--seed", nargs="+", type=int, default=[11])
    args = ap.parse_args(argv)
    failed = False
    for case in args.case:
        for seed in args.seed:
            with tempfile.TemporaryDirectory() as tmp:
                runs = passes(case, tmp)
                sides = []
                for side, checkout in (("base", args.base), ("here", ROOT)):
                    os.mkdir(os.path.join(tmp, side))
                    sides.append(run_side(checkout, runs, seed, os.path.join(tmp, side)))
            label = f"{case} seed {seed}"
            lines = differences(label, *sides)
            codes = ", ".join(f"{cmd} {code}" for cmd, (code, _, _) in sides[1][0].items())
            print(f"{label}: {len(sides[1][1])} files, exit codes {codes}: "
                  f"{'DIFFERENT' if lines else 'identical'}")
            for line in lines:
                print("  " + line)
            failed = failed or bool(lines)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
