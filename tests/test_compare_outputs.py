"""scripts/compare_outputs.py, the byte-identity check between two checkouts."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_outputs.py"


def test_checkout_against_itself_on_readout_exits_0():
    """This checkout matches itself on the readout case, and the comparison
    names each kind of difference it finds. A file that differs only in its
    numbers gets how many moved and by how much; a file that differs in
    other text, as e does in its second line, gets no count."""
    proc = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), "--case", "readout"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("readout seed 11: ")
    assert proc.stdout.endswith(", exit codes measure 0, amplify 0: identical\n")

    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    base = ({"measure": (0, b"", b"")},
            {"a": b"1", "b": b"2", "d": b'{"p": [0.5, 4, -0.0]}\n{"p": [1e-3]}\n',
             "e": b"alpha_0\ntrue\n"})
    here = ({"measure": (3, b"", b"x")},
            {"a": b"0", "c": b"2", "d": b'{"p": [0.5, 3, -0.0]}\n{"p": [0.0015]}\n',
             "e": b"alpha_1\nfalse\n"})
    assert script.differences("t", base, here) == [
        "t measure: exit code 0 in base, 3 here",
        "t measure: stderr differs",
        "t: a differs: 1 of 1 numbers, by at most 1 absolute, 1 relative",
        "t: b only in base",
        "t: c only here",
        "t: d differs: 2 of 4 numbers, by at most 1 absolute, 0.333 relative",
        "t: e differs",
    ]
