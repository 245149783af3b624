"""edsim benchmark: run one workload's CLI commands for a fixed time and
print its metrics as the last line of stdout.

Run from the root of a checkout (it uses the sources under src/):

    python3 perfbench/run.py --workload engines --seed 1 --seconds 30 --trace 0

Every pass is a fresh interpreter (perfbench/child.py) that runs the
workload's commands in order, as a user's sequence of ``edsim`` calls
would pay cold imports and empty caches. Passes run one after another, so
all load comes from one process at a time. With ``--trace 0`` the run
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
Metric names and units come from BENCHMARK.json; see perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

from layers import MB, layer_metrics
from workloads import WORKLOADS, Tally

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
MIN_PASSES = 3
DEADLINE_S = 150.0  # the run must end within 180 s, whatever --seconds says
BLAS_THREADS = 1


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _read(path, default=""):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def machine(versions):
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, **caches,
            **versions, "blas_threads": BLAS_THREADS}


def run_pass(workload, seed, index, traced, env, deadline, commands=None):
    """Run one pass in a fresh child; returns (child report or None, out dir, spans path)."""
    out = WORK / f"pass{index}"
    spans = WORK / f"spans{index}.json" if traced else None
    commands = workload.commands if commands is None else commands
    cmd = [sys.executable, str(BENCH / "child.py"), "--ini", str(workload.ini),
           "--commands", ",".join(commands), "--out", str(out),
           "--seed", str(seed)]
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: pass {index} timed out", file=sys.stderr)
        return None, out, spans
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: pass {index} exited {proc.returncode}", file=sys.stderr)
        return None, out, spans
    return json.loads(lines[-1]), out, spans


def distinct_readings(out):
    path = out / "amplify" / "experiment.ndjson"
    if not path.exists():
        return 0
    return len(set(re.findall(rb'"observed_r": (\d+)', path.read_bytes())))


def out_bytes(out):
    return sum(f.stat().st_size for f in out.rglob("*") if f.is_file())


def measure(workload, seed, seconds, trace):
    env = child_env()
    start = time.monotonic()
    deadline = start + DEADLINE_S
    stop = min(start + seconds, deadline)
    # fill the file cache and the bytecode cache first; not measured
    run_pass(workload, seed, "warm", False, env, deadline, commands=())
    tally = Tally(workload)
    reports, layers = [], []
    index = 0
    while True:
        traced = bool(trace) and index % 2 == 1
        pass_start = time.monotonic()
        report, out, spans = run_pass(workload, seed, index, traced, env, deadline)
        if report is None:
            tally.attempted += len(workload.commands)
            tally.failed += len(workload.commands)
            tally.problems.append(f"pass {index} did not report")
            break
        if Path(report["edsim"]).resolve() != (ROOT / "src" / "edsim").resolve():
            raise SystemExit(f"perfbench: imported edsim from {report['edsim']}, not src/")
        tally.add_pass(report["codes"], out)
        report.update(traced=traced, out_bytes=out_bytes(out),
                      seconds=time.monotonic() - pass_start)
        if traced:
            span_list = json.loads(spans.read_text())
            layers.append(layer_metrics(span_list, report["import_s"], distinct_readings(out)))
            spans.unlink()
        shutil.rmtree(out, ignore_errors=True)
        reports.append(report)
        print(f"perfbench: pass {index}{' traced' if traced else ''}: "
              f"setup {report['setup_s']:.3f} s, wall {report['wall_s']:.3f} s "
              f"{report['command_s']}, rss {report['peak_rss_mb']:.1f} MB",
              file=sys.stderr)
        index += 1
        typical = median(r["seconds"] for r in reports)
        if index >= MIN_PASSES and time.monotonic() + typical > stop:
            break
    return tally, reports, layers


def summarize(tally, reports, layers, trace):
    plain = [r for r in reports if not r["traced"]]
    if not trace:
        return {
            "wall_s": median(r["wall_s"] for r in plain),
            "setup_s": median(r["setup_s"] for r in reports),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "out_mb": median(r["out_bytes"] for r in reports) / MB,
            "ok_frac": tally.ok_frac,
        }
    # median_low keeps counts exact when there are two traced passes
    metrics = {name: median_low(m[name] for m in layers) for name in layers[0]}
    traced_wall = median(r["wall_s"] for r in reports if r["traced"])
    metrics["trace.overhead_s"] = traced_wall - median(r["wall_s"] for r in plain)
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so that the running child is killed and
    # waited for and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "edsim" / "cli.py").is_file():
        print(f"perfbench: no edsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        tally, reports, layers = measure(WORKLOADS[args.workload], args.seed,
                                         args.seconds, args.trace)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in tally.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if not reports or (args.trace and not layers):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1

    values = summarize(tally, reports, layers, args.trace)
    if set(values) != {m["name"] for m in declared}:
        print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    walls = sorted(r["wall_s"] for r in reports if not r["traced"])
    print(f"# machine {json.dumps(machine(reports[0]['versions']), sort_keys=True)}")
    print(f"# wall_s passes n={len(walls)}: {', '.join(f'{w:.4f}' for w in walls)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
