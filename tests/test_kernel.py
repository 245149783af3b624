"""The compiled density-phase step: its build command, its cache, two
processes building it at once, a damaged cached library, and the numpy step
that runs, to the same bytes, when it cannot be built."""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import edsim.dynamics as dynamics
from edsim import Grid1D, PhysicalParams, WaveFunction, cli, free_gaussian, to_hydro
from edsim.dynamics import (
    KERNEL_FLAGS,
    KERNEL_SOURCE,
    _MadelungEngine,
    build_kernel,
    kernel_command,
    kernel_path,
    madelung_kernel,
)

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
SRC = os.path.dirname(os.path.dirname(dynamics.__file__))
# flags that let the compiler reorder, fuse or approximate arithmetic, or
# tie the library to the CPU that built it
UNSAFE = ("-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-march=native")
FALLBACK = "edsim: no compiled density-phase step ("

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
engine = madelung
dt = 1e-3
t_final = 0.05
snapshot_stride = 10
node_floor = 0
"""


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """An empty kernel cache directory, with madelung_kernel's memo cleared
    before the test and after it."""
    d = tmp_path / "cache"
    monkeypatch.setattr(dynamics, "KERNEL_CACHE", str(d))
    madelung_kernel.cache_clear()
    yield d
    madelung_kernel.cache_clear()


def one_step_on_both_paths():
    """A step of a packet on a hard-wall grid by the compiled engine and by
    the numpy one, made while madelung_kernel answers None, as bytes."""
    g = Grid1D(-8.0, 8.0, 64, "hardwall")
    h = to_hydro(WaveFunction(g, free_gaussian(g.cells, sigma0=1.0, k0=2.0)).normalized(), 0.0)
    engines = [_MadelungEngine(g, PhysicalParams())]
    with mock.patch.object(dynamics, "madelung_kernel", lambda: None):
        engines.append(_MadelungEngine(g, PhysicalParams()))
    assert [eng._kernel is None for eng in engines] == [False, True]
    out = []
    for eng in engines:
        rho, phi, dev = eng.step(h.rho, h.phi, 1e-3)
        out.append((rho.tobytes(), phi.tobytes(), dev))
    return out


def test_build_command_keeps_contraction_off_and_no_unsafe_math():
    cmd = kernel_command("k.c", "k.so")
    assert cmd[0] == "cc" and "-ffp-contract=off" in cmd
    assert not [f for f in cmd if f in UNSAFE or f.startswith("-march")]
    source = Path(KERNEL_SOURCE).read_bytes()
    names = {kernel_path(source),
             kernel_path(source, ("-O3",) + KERNEL_FLAGS[1:]),
             kernel_path(source, KERNEL_FLAGS + ("-g",)),
             kernel_path(source + b"\n")}
    assert len(names) == 4  # each flag change, and a source change, names another file
    assert {os.path.dirname(name) for name in names} == {dynamics.KERNEL_CACHE}


# a process that builds the kernel into the cache argv[1]: its builder waits
# inside until argv[2] builders are inside, so each process builds its own
# library and renames it into place at about the same moment
CHILD = r"""
import os, sys, time
import edsim.dynamics as d

cache, peers = sys.argv[1], int(sys.argv[2])
d.KERNEL_CACHE = cache
real = d.build_kernel


def build(*args):
    open(os.path.join(cache + ".inside", str(os.getpid())), "w").close()
    deadline = time.monotonic() + 60
    while len(os.listdir(cache + ".inside")) < peers and time.monotonic() < deadline:
        time.sleep(0.01)
    real(*args)
    print("built", flush=True)


d.build_kernel = build
print("loaded" if d.madelung_kernel() else "none", flush=True)
"""


@needs_cc
def test_two_processes_building_at_once_both_load_it(tmp_path):
    cache = tmp_path / "cache"
    (tmp_path / "cache.inside").mkdir()
    procs = [subprocess.Popen([sys.executable, "-c", CHILD, str(cache), "2"],
                              env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [proc.communicate(timeout=180) for proc in procs]
    assert outs == [("built\nloaded\n", "")] * 2
    # one library, whole, and no temp file left behind
    name = os.path.basename(kernel_path(Path(KERNEL_SOURCE).read_bytes()))
    assert [p.name for p in cache.iterdir()] == [name]
    assert dynamics._intact(cache / name)


@needs_cc
@pytest.mark.parametrize("damage", ["truncated", "one_byte"])
def test_damaged_cached_library_is_rebuilt_once(damage, cache, monkeypatch):
    """A cached library cut short, or with one byte changed, is never
    loaded: the lookup rebuilds it once, and the step it loads is the
    numpy step's."""
    path = Path(kernel_path(Path(KERNEL_SOURCE).read_bytes()))
    build_kernel(KERNEL_SOURCE, str(path))
    data = bytearray(path.read_bytes())
    if damage == "truncated":
        data = data[:len(data) // 2]
    else:
        data[len(data) // 3] ^= 0x40
    path.write_bytes(data)
    builds = []

    def counted(*args):
        builds.append(args)
        build_kernel(*args)

    monkeypatch.setattr(dynamics, "build_kernel", counted)
    assert madelung_kernel() is not None
    assert len(builds) == 1 and dynamics._intact(path)
    (rho, phi, dev), plain = one_step_on_both_paths()
    assert (rho, phi, dev) == plain


def _fail_build(*args):
    raise subprocess.CalledProcessError(1, ["cc"], stderr=b"planted failure")


@pytest.mark.parametrize("how", ["build_fails", "no_compiler", "cache_unwritable"])
def test_evolve_without_the_kernel_writes_the_same_bytes(how, cache, monkeypatch, tmp_path,
                                                         capfd):
    """When the kernel cannot be built (the build fails, no cc on PATH, or a
    cache directory that cannot be made), evolve steps with numpy, writes
    the compiled run's bytes, and says so in one line on stderr, once a
    process."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    argv = ["evolve", "--config", str(cfg), "--out"]
    if shutil.which("cc"):
        assert cli.main(argv + [str(tmp_path / "compiled")]) == 0
        assert capfd.readouterr().err == ""
        madelung_kernel.cache_clear()
    if how != "cache_unwritable":
        monkeypatch.setattr(dynamics, "KERNEL_CACHE", str(tmp_path / "empty"))
    if how == "build_fails":
        monkeypatch.setattr(dynamics, "build_kernel", _fail_build)
    elif how == "no_compiler":
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    else:
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(dynamics, "KERNEL_CACHE", str(tmp_path / "file" / "cache"))
    assert cli.main(argv + [str(tmp_path / "numpy")]) == 0
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(FALLBACK), lines
    assert lines[0].endswith("); the numpy step runs instead")
    assert _MadelungEngine(Grid1D(-8.0, 8.0, 16), PhysicalParams())._kernel is None
    assert capfd.readouterr().err == ""
    if shutil.which("cc"):
        compiled = sorted((tmp_path / "compiled").iterdir())
        assert [p.name for p in compiled] == sorted(os.listdir(tmp_path / "numpy"))
        for p in compiled:
            assert p.read_bytes() == (tmp_path / "numpy" / p.name).read_bytes(), p.name
