#!/usr/bin/env python3
"""Compare this checkout's benchmark with another checkout's, in alternating pairs.

Usage, from any directory:

    python3 scripts/bench_pairs.py BASE_CHECKOUT --workload W [--pairs 10]
                                   [--seconds 40] [--seed 1]

Pair i runs `python3 perfbench/run.py --workload W --seed SEED+i --seconds
SECONDS --trace 0` once in each checkout, from that checkout's root; the
base goes first in even pairs and this checkout in odd ones, so a slow
spell of the host falls on both sides alike. For each end-to-end metric
of this checkout's BENCHMARK.json it prints the median and quartiles on
each side, how many pairs the change won (a tie counts for neither side),
the signed relative change of the median, (change - base) / |base|, as a
percent, and whether the change's median is worse than the base's by more
than the metric's bound, read as a fraction of the base median. A run that fails
stops the script with exit 1; otherwise it exits 0, whatever the numbers.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout, workload, seed, seconds):
    """{metric: value} from the last stdout line of one perfbench run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"perfbench in {checkout} (seed {seed}) exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}


def summarize(metrics, base, here):
    """One dict per metric of metrics (BENCHMARK.json's end_to_end entries)
    from base and here, lists of {metric: value} in pair order: the median
    and quartiles of each side, the pairs the change won, the relative
    change of the median, (change - base) / |base| (nan for a base median
    of 0), and whether the change's median is worse than the base's by
    more than bound x |base median|."""
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        b = np.array([run[name] for run in base], dtype=float)
        h = np.array([run[name] for run in here], dtype=float)
        b_q1, b_med, b_q3 = np.percentile(b, [25, 50, 75])
        h_q1, h_med, h_q3 = np.percentile(h, [25, 50, 75])
        won = int(np.sum(h < b if lower else h > b))
        worse = (h_med - b_med) if lower else (b_med - h_med)
        rows.append({
            "name": name, "unit": m["unit"], "bound": m["bound"], "pairs": len(b),
            "base": (float(b_med), float(b_q1), float(b_q3)),
            "here": (float(h_med), float(h_q1), float(h_q3)),
            "won": won,
            "median_change": float((h_med - b_med) / abs(b_med)) if b_med else float("nan"),
            "beyond_bound": bool(worse > m["bound"] * abs(b_med)),
        })
    return rows


def report(rows):
    """The rows of summarize as text, one line per metric."""
    lines = []
    for r in rows:
        (bm, b1, b3), (hm, h1, h3) = r["base"], r["here"]
        lines.append(
            f"{r['name']} ({r['unit']}): base {bm:.4g} [{b1:.4g}, {b3:.4g}], "
            f"change {hm:.4g} [{h1:.4g}, {h3:.4g}]; change won {r['won']}/{r['pairs']}, "
            f"median {r['median_change']:+.1%}; "
            f"{'WORSE than' if r['beyond_bound'] else 'within'} the {r['bound']:g} bound")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="the other checkout (its root holds perfbench/)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base, here = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        sides = [(args.base, base), (ROOT, here)]
        for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(run_once(checkout, args.workload, seed, args.seconds))
        print(f"# pair {i + 1}/{args.pairs} (seed {seed}): wall_s base "
              f"{base[-1].get('wall_s', float('nan')):.4f}, change "
              f"{here[-1].get('wall_s', float('nan')):.4f}", flush=True)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{args.seconds:g} s a run")
    print(report(summarize(metrics, base, here)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
