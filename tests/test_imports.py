"""Import-path guard: the CLI must start without the heavy modules.

scipy.stats alone costs about a second of interpreter start-up, more than
some commands spend on their work, so edsim.cli keeps scipy.stats,
scipy.special and scipy.optimize out of its import graph. chi2_critical
reads its 1% points from a table; only chi2_gof, which measure does not
call, imports scipy.special, when it is called. The Crank-Nicolson step
solves its banded system with zgttrf and zgttrs from scipy.linalg's
compiled LAPACK module, which edsim.dynamics loads from its file: the
scipy.linalg package init, with scipy's array-API layer and the numpy.f2py
it loads, is not run, and scipy.sparse is not loaded either. The worker
that runs the second sampler mode of trajectories, or the Madelung engine
of evolve, is a plain os.fork, so no process-pool machinery is loaded
either. These are structural checks rather than timing ones, so they do
not depend on the machine.
"""

import os
import subprocess
import sys

import edsim

HEAVY = ("scipy.stats", "scipy.special", "scipy.optimize", "scipy.sparse")
LINALG = ("scipy.linalg", "scipy._lib._array_api", "numpy.f2py")
POOLS = ("multiprocessing", "concurrent.futures.process")
SRC = os.path.dirname(os.path.dirname(edsim.__file__))

CONFIG = """\
[grid]
x_min = -8
x_max = 8
n = 64

[initial]
preset = gaussian
mu = -1
k = 1

[evolution]
engine = schrodinger
dt = 1e-3
t_final = 0.01

[device]
n_trials = 200
"""


def fresh_python(code):
    """stdout of code run in a fresh interpreter that imports edsim from SRC."""
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         check=True, capture_output=True, text=True, timeout=120)
    return out.stdout


def loaded(names):
    """Code that prints the modules among names that are loaded."""
    return f"import sys; print(*[m for m in {names!r} if m in sys.modules])"


def loaded_by_cli_import(names):
    """The modules among names that `import edsim.cli` loads, in a fresh interpreter."""
    return fresh_python("import edsim.cli; " + loaded(names)).split()


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    assert loaded_by_cli_import(HEAVY) == []


def test_cli_import_leaves_scipy_linalg_package_unloaded():
    assert loaded_by_cli_import(LINALG) == []


def test_cli_import_leaves_process_pools_unloaded():
    assert loaded_by_cli_import(POOLS) == []


def test_evolve_and_measure_runs_leave_scipy_linalg_and_special_unloaded(tmp_path):
    """A Crank-Nicolson evolve and a measure, each in a fresh interpreter,
    exit 0 without loading the scipy.linalg package or scipy.special."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    for command in ("evolve", "measure"):
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / command)]
        code = f"import edsim.cli; assert edsim.cli.main({argv!r}) == 0; "
        assert fresh_python(code + loaded(("scipy.linalg", "scipy.special"))).split() == []


def test_lapack_wrappers_are_scipy_linalg_lapack_objects():
    """The solver's zgttrf and zgttrs are the objects scipy.linalg.lapack
    exports, whether edsim or scipy.linalg is imported first."""
    same = ("print(edsim.dynamics.zgttrf is scipy.linalg.lapack.zgttrf,"
            " edsim.dynamics.zgttrs is scipy.linalg.lapack.zgttrs)")
    for imports in ("import edsim.dynamics, scipy.linalg.lapack",
                    "import scipy.linalg.lapack, edsim.dynamics"):
        assert fresh_python(f"{imports}; {same}").split() == ["True", "True"]
