"""Import-path guard: the CLI must start without the heavy modules.

scipy.stats alone costs about a second of interpreter start-up, more than
some commands spend on their work, so edsim.cli keeps scipy.stats,
scipy.special and scipy.optimize out of its import graph. chi2_critical
reads its 1% points from a table; only chi2_gof, which measure does not
call, imports scipy.special, when it is called. The Crank-Nicolson step
solves its banded system with zgttrf and zgttrs from scipy.linalg's
compiled LAPACK module, which edsim.dynamics loads from its file when it
first factors a Crank-Nicolson matrix: the scipy.linalg package init, with
scipy's array-API layer and the numpy.f2py it loads, is not run, and
scipy.sparse is not loaded either. build_device, which checks file
devices, loads the compiled BLAS module for zherk the same way, on its
first call. The worker that runs the second sampler mode of trajectories,
or the Madelung engine of evolve, is a plain os.fork, so no process-pool
machinery is loaded either. The compiled density-phase step is looked
up, built and loaded only when a density-phase engine is made, so
start-up, measure and a Crank-Nicolson evolve never run a compiler. These are structural checks rather than timing ones, so they do
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


def fresh_python(code, **env):
    """stdout of code run in a fresh interpreter that imports edsim from SRC,
    with env added to its environment."""
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC, **env),
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


def test_cli_import_leaves_compiled_blas_unloaded():
    """build_device loads scipy.linalg's compiled BLAS module on its first
    call, so start-up does not pay for it."""
    assert loaded_by_cli_import(("scipy.linalg._fblas",)) == []


def test_cli_import_measure_and_amplify_leave_compiled_lapack_unloaded(tmp_path):
    """Only a Crank-Nicolson solver loads scipy.linalg's compiled LAPACK
    module, on its first factorization, so start-up, measure and amplify,
    which solve nothing, never load it; a Crank-Nicolson evolve does."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG + "\n[amplify]\nepsilon = 0.1\nn_trials = 50\n")
    lapack = ("scipy.linalg._flapack",)
    assert loaded_by_cli_import(lapack) == []
    for command, names in (("measure", []), ("amplify", []), ("evolve", list(lapack))):
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / command)]
        code = f"import edsim.cli; assert edsim.cli.main({argv!r}) == 0; "
        assert fresh_python(code + loaded(lapack)).split() == names, command


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


def test_measure_loads_compiled_blas_without_the_linalg_package(tmp_path):
    """A measure run on a file device, in a fresh interpreter, checks the
    device with zherk from scipy.linalg._fblas and loads none of the LINALG
    modules. The Fourier preset is not checked by build_device, so a
    measure on it loads neither."""
    from edsim import identity_device
    from edsim.io import write_device
    from oracles import dense_copy

    device = tmp_path / "device.json"
    write_device(device, dense_copy(identity_device(64)))
    names = LINALG + ("scipy.linalg._fblas",)
    for preset, blas in (("fourier", []), ("file", ["scipy.linalg._fblas"])):
        cfg = tmp_path / f"{preset}.ini"
        cfg.write_text(CONFIG + f"preset = {preset}\npath = {device}\n")
        argv = ["measure", "--config", str(cfg), "--out", str(tmp_path / preset)]
        code = f"import edsim.cli; assert edsim.cli.main({argv!r}) == 0; "
        assert fresh_python(code + loaded(names)).split() == blas


def test_lapack_wrappers_are_scipy_linalg_lapack_objects():
    """The solver's zgttrf and zgttrs are the objects scipy.linalg.lapack
    exports, whether edsim or scipy.linalg is imported first."""
    same = ("lapack = load_linalg('_flapack'); print(lapack.zgttrf is scipy.linalg.lapack.zgttrf,"
            " lapack.zgttrs is scipy.linalg.lapack.zgttrs)")
    for imports in ("from edsim.dynamics import load_linalg; import scipy.linalg.lapack",
                    "import scipy.linalg.lapack; from edsim.dynamics import load_linalg"):
        assert fresh_python(f"{imports}; {same}").split() == ["True", "True"]


def test_blas_wrapper_is_the_scipy_linalg_blas_object():
    """build_device's zherk is the object scipy.linalg.blas exports, whether
    edsim or scipy.linalg is imported first."""
    same = "print(load_linalg('_fblas').zherk is scipy.linalg.blas.zherk)"
    for imports in ("from edsim.dynamics import load_linalg; import scipy.linalg.blas",
                    "import scipy.linalg.blas; from edsim.dynamics import load_linalg"):
        assert fresh_python(f"{imports}; {same}").split() == ["True"]


def test_start_up_measure_and_cn_evolve_never_build_or_load_the_kernel(tmp_path):
    """`import edsim.cli`, a measure and a Crank-Nicolson evolve, each in a
    fresh interpreter whose PATH starts with a cc that only records that it
    ran, never look up the compiled density-phase step, so no compiler
    starts and no kernel loads. A density-phase evolve looks it up once."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    ran = tmp_path / "cc-ran"
    fake = tmp_path / "bin" / "cc"
    fake.parent.mkdir()
    fake.write_text(f"#!/bin/sh\ntouch '{ran}'\nexit 1\n")
    fake.chmod(0o755)
    path = os.pathsep.join((str(fake.parent), os.environ.get("PATH", "")))
    lookups = "; import edsim.dynamics; print(edsim.dynamics.madelung_kernel.cache_info().misses)"
    runs = {"import": "import edsim.cli"}
    for command in ("evolve", "measure"):
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / command)]
        runs[command] = f"import edsim.cli; assert edsim.cli.main({argv!r}) == 0"
    for name, code in runs.items():
        assert fresh_python(code + lookups, PATH=path).split() == ["0"], name
    assert not ran.exists()
    madelung = tmp_path / "madelung.ini"
    madelung.write_text(CONFIG.replace("engine = schrodinger", "engine = madelung\nnode_floor = 0"))
    argv = ["evolve", "--config", str(madelung), "--out", str(tmp_path / "madelung")]
    code = f"import edsim.cli; assert edsim.cli.main({argv!r}) == 0"
    assert fresh_python(code + lookups).split() == ["1"]
