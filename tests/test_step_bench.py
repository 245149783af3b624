"""scripts/step_bench.py, the per-step timing against another checkout, run
against this checkout itself with tiny blocks."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "step_bench.py"
STEPS = ("cn_step_us", "madelung_step_us")


def test_checkout_against_itself_prints_quartiles_and_a_json_line():
    proc = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), "--blocks", "2"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *text, last = proc.stdout.splitlines()
    assert text[0] == "engines.ini: 2 blocks of 500 steps, us a step"
    assert [line.split(" (us):")[0] for line in text[1:]] == list(STEPS)
    result = json.loads(last)
    assert set(result) == {"config", "blocks", "steps", *STEPS}
    assert result["config"] == str(ROOT / "perfbench" / "workloads" / "engines.ini")
    assert (result["blocks"], result["steps"]) == (2, 500)
    for name in STEPS:
        row = result[name]
        assert set(row) == {"name", "unit", "bound", "pairs", "base", "here", "won",
                            "median_change", "beyond_bound"}
        for side in ("base", "here"):
            median, q1, q3 = row[side]
            assert 0 < q1 <= median <= q3
        assert 0 <= row["won"] <= 2
