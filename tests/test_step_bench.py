"""scripts/step_bench.py, the per-step timing against another checkout, run
against this checkout itself with tiny blocks. The compiled Madelung
engine is timed as evolve runs it, one snapshot stride a call, and the CN
and numpy steps one at a time."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "step_bench.py"
STEPS = ("cn_step_us", "madelung_step_us", "madelung_numpy_step_us")


def test_checkout_against_itself_prints_quartiles_and_a_json_line():
    proc = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), "--blocks", "2"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *text, last = proc.stdout.splitlines()
    assert text[0] == "engines.ini: 2 blocks of 500 steps and one 800-step stride, us a step"
    assert [line.split(" (us):")[0] for line in text[1:]] == list(STEPS)
    result = json.loads(last)
    assert set(result) == {"config", "blocks", "steps", "stride", *STEPS}
    assert result["config"] == str(ROOT / "perfbench" / "workloads" / "engines.ini")
    assert (result["blocks"], result["steps"], result["stride"]) == (2, 500, 800)
    for name in STEPS:
        row = result[name]
        assert set(row) == {"name", "unit", "bound", "pairs", "base", "here", "won",
                            "median_change", "beyond_bound"}
        for side in ("base", "here"):
            median, q1, q3 = row[side]
            assert 0 < q1 <= median <= q3
        assert 0 <= row["won"] <= 2


def test_a_stride_that_fails_fails_the_script(tmp_path):
    """A node floor that the engines set-up's periodic run falls below in
    its first step stops the timed stride there; the script exits 1 rather
    than divide one step's time by the stride."""
    ini = (ROOT / "perfbench" / "workloads" / "engines.ini").read_text()
    config = tmp_path / "node_floor.ini"
    config.write_text(ini.replace("node_floor = 0", "node_floor = 1e-97"))
    proc = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), "--config", str(config),
                           "--blocks", "1"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "the density-phase stride fails at step 1: density 0.000e+00 below node floor" \
        in proc.stderr
    assert proc.stdout == ""
