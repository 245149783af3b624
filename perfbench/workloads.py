"""The benchmark's workloads and the checks on each command's outputs.

A workload is one pinned INI plus the CLI commands run on it; the seed
reaches the program only as ``--seed``. Each command writes to its own
directory, so a failed check is charged to the command that wrote the
file.
"""

import configparser
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Statistical records are gated at a family-wise false-alarm level of 1e-6
# per test, not at the program's 1% level: the benchmark runs dozens of
# seeds, and a 1% test fails by chance on about one seed in a hundred.
KS_ALPHA = 1e-6
KS_GATE = math.sqrt(math.log(2.0 / KS_ALPHA) / 2.0)
L1_LIMIT = 1e-3
BORN_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    ini: Path

    def config(self):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read(self.ini)
        return cp


WORKLOADS = {
    name: Workload(name, commands, HERE / "workloads" / f"{name}.ini")
    for name, commands in (
        ("engines", ("evolve",)),
        ("particles", ("evolve", "trajectories")),
        ("readout", ("measure", "amplify")),
    )
}


def _csv_columns(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _test_record(path, problems):
    """The record at path, with a problem added if its verdict disagrees
    with its own statistic."""
    rec = json.loads(Path(path).read_text())
    if rec["pass"] != (rec["statistic"] < rec["critical_value"]):
        problems.append(f"{path.name}: pass={rec['pass']} contradicts its statistic")
    return rec


def _check_evolve(out, cp):
    problems = []
    diags = sorted(out.glob("diagnostics_*.csv"))
    if not diags:
        problems.append("no diagnostics written")
    for path in diags:
        for name, col in _csv_columns(path).items():
            if not all(math.isfinite(v) for v in col):
                problems.append(f"{path.name}: non-finite {name}")
    if cp.get("evolution", "engine", fallback="schrodinger") == "both":
        path = out / "compare_l1.csv"
        worst = max(_csv_columns(path)["l1"]) if path.exists() else math.inf
        if not worst < L1_LIMIT:
            problems.append(f"compare_l1.csv: max L1 {worst:.3g} >= {L1_LIMIT:g}")
    return problems


def _check_trajectories(out, cp):
    problems = []
    n = cp.getint("sampler", "n_particles")
    steps = round(cp.getfloat("evolution", "t_final") / cp.getfloat("evolution", "dt"))
    stride = cp.getint("evolution", "snapshot_stride", fallback=1)
    snapshots = len(set(range(0, steps + 1, stride)) | {steps})
    mode = cp.get("sampler", "mode")
    modes = ("current_flow", "entropic_diffusion") if mode == "both" else (mode,)
    for mode in modes:
        rec = _test_record(out / f"ks_{mode}.json", problems)
        if rec["n"] != n:
            problems.append(f"ks_{mode}.json: n={rec['n']}, expected {n}")
        if not rec["statistic"] < KS_GATE / math.sqrt(n):
            problems.append(f"ks_{mode}.json: statistic {rec['statistic']:.4g} beyond the "
                            f"{KS_ALPHA:g} level")
        with open(out / f"ensemble_{mode}.csv", "rb") as fh:
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
        if rows != n * snapshots:
            problems.append(f"ensemble_{mode}.csv: {rows} rows, expected {n * snapshots}")
    return problems


def _check_measure(out, cp):
    problems = []
    if not _test_record(out / "chi2.json", problems)["pass"]:
        problems.append("chi2.json: pass is false")
    probs = json.loads((out / "born.json").read_text())["probabilities"]
    if not abs(math.fsum(probs) - 1.0) <= BORN_TOL:
        problems.append(f"born.json: probabilities sum to {math.fsum(probs)!r}")
    return problems


def _check_amplify(out, cp):
    eps = cp.getfloat("amplify", "epsilon")
    trials = cp.getint("amplify", "n_trials")
    limit = eps + 4.0 * math.sqrt(eps * (1.0 - eps) / trials)
    rate = json.loads((out / "summary.json").read_text())["error_rate"]
    return [] if rate <= limit else [f"summary.json: error_rate {rate} > {limit:.4g}"]


CHECKS = {
    "evolve": _check_evolve,
    "trajectories": _check_trajectories,
    "measure": _check_measure,
    "amplify": _check_amplify,
}


def tree_digest(root):
    """{relative path: sha256} of every file under root."""
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            digests[os.path.relpath(path, root)] = h.hexdigest()
    return digests


@dataclass
class Tally:
    """Commands attempted and failed over the passes of one run.

    A command fails if it exits non-zero, if its outputs fail their check,
    or if they are not byte-identical to the first pass's outputs.
    """

    workload: Workload
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)

    def add_pass(self, codes, out):
        """Score one pass whose command outputs are under out/<command>."""
        cp = self.workload.config()
        for cmd in self.workload.commands:
            self.attempted += 1
            found = self._problems(cmd, codes.get(cmd), Path(out) / cmd, cp)
            if found:
                self.failed += 1
                self.problems.extend(f"{cmd}: {p}" for p in found)

    def _problems(self, cmd, code, out, cp):
        if code != 0:
            return [f"exit code {code}"]
        try:
            found = CHECKS[cmd](out, cp)
        except (OSError, ValueError, KeyError, IndexError) as e:
            return [f"unreadable output: {type(e).__name__}: {e}"]
        digest = tree_digest(out)
        expected = self.reference.setdefault(cmd, digest)
        if digest != expected:
            differ = sorted(k for k in digest.keys() | expected.keys()
                            if digest.get(k) != expected.get(k))
            found.append(f"outputs differ from the first pass: {differ}")
        return found

    @property
    def ok_frac(self):
        return (self.attempted - self.failed) / self.attempted
