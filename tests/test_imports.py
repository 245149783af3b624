"""Import-path guard: the CLI must start without the heavy scipy modules.

scipy.stats alone costs about a second of interpreter start-up, more than
some commands spend on their work, so edsim.cli keeps scipy.stats,
scipy.special and scipy.optimize out of its import graph; the chi-square
helpers import scipy.special only when called. This is a structural check
rather than a timing one, so it does not depend on the machine.
"""

import os
import subprocess
import sys

import edsim

HEAVY = ("scipy.stats", "scipy.special", "scipy.optimize")


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    src = os.path.dirname(os.path.dirname(edsim.__file__))
    probe = f"import sys, edsim.cli; print(*[m for m in {HEAVY!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == []
