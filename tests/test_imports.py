"""Import-path guard: the CLI must start without the heavy modules.

scipy.stats alone costs about a second of interpreter start-up, more than
some commands spend on their work, so edsim.cli keeps scipy.stats,
scipy.special and scipy.optimize out of its import graph; the chi-square
helpers import scipy.special only when called. The Crank-Nicolson step
solves its banded system with scipy.linalg's LAPACK wrappers, so
scipy.sparse is not loaded either. The worker that runs the second
sampler mode of trajectories, or the Madelung engine of evolve, is a
plain os.fork, so no process-pool machinery is loaded either. These are
structural checks rather than timing ones, so they do not depend on the
machine.
"""

import os
import subprocess
import sys

import edsim

HEAVY = ("scipy.stats", "scipy.special", "scipy.optimize", "scipy.sparse")
POOLS = ("multiprocessing", "concurrent.futures.process")


def loaded_by_cli_import(names):
    """The modules among names that `import edsim.cli` loads, in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(edsim.__file__))
    probe = f"import sys, edsim.cli; print(*[m for m in {names!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True, timeout=120)
    return out.stdout.split()


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    assert loaded_by_cli_import(HEAVY) == []


def test_cli_import_leaves_process_pools_unloaded():
    assert loaded_by_cli_import(POOLS) == []
