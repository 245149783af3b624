"""The compiled density-phase step: its build command, its cache, two
processes building it at once, a damaged cached library, its copy of
numpy's sum, and the numpy step that runs, to the same bytes, when it
cannot be built."""

import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
# Flags that let the compiler reorder, fuse or approximate arithmetic, or
# tie the library to the CPU that built it. -ffinite-math-only may drop the
# kernel's finite checks, -fassociative-math may reorder the pairwise sum,
# -freciprocal-math may turn the division by Z into a product,
# -fno-signed-zeros may fold the sum's 0.0 + x into x (a -0.0 sum then
# keeps its sign) and -fcx-limited-range changes complex division. The
# kernel's two others move no bit: -fno-math-errno only stops sqrt and
# nearbyint from setting errno (their values are the same correctly rounded
# ones), and -fno-trapping-math only lets the compiler assume that no
# floating-point exception traps, so it may turn max(rho, 0) into a
# branchless select, which gives the same value for every input.
UNSAFE = ("-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-march=native",
          "-ffinite-math-only", "-fassociative-math", "-freciprocal-math", "-fno-signed-zeros",
          "-fcx-limited-range")
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
    assert [eng._run is None for eng in engines] == [False, True]
    out = []
    for eng in engines:
        rho, phi, dev = eng.step(h.rho, h.phi, 1e-3)
        out.append((rho.tobytes(), phi.tobytes(), dev))
    return out


def test_build_command_keeps_contraction_off_and_no_unsafe_math():
    cmd = kernel_command("k.c", "k.so")
    assert cmd[0] == "cc" and "-ffp-contract=off" in cmd
    assert not [f for f in cmd if f in UNSAFE or f.startswith(("-march", "-mtune", "-mavx"))]
    source = Path(KERNEL_SOURCE).read_bytes()
    names = {kernel_path(source),
             kernel_path(source, ("-O2",) + KERNEL_FLAGS[1:]),
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
    assert _MadelungEngine(Grid1D(-8.0, 8.0, 16), PhysicalParams())._run is None
    assert capfd.readouterr().err == ""
    if shutil.which("cc"):
        compiled = sorted((tmp_path / "compiled").iterdir())
        assert [p.name for p in compiled] == sorted(os.listdir(tmp_path / "numpy"))
        for p in compiled:
            assert p.read_bytes() == (tmp_path / "numpy" / p.name).read_bytes(), p.name


# lengths at and beside the edges of numpy's pairwise sum: its 8
# accumulators, its blocks of 128 and the halves it splits larger arrays
# into, at multiples of 8
SUM_EDGES = sorted({k + d for k in (8, 16, 64, 120, 128, 136, 256, 264, 1024, 1032, 4096, 8192,
                                    65536, 100_000)
                    for d in (-1, 0, 1) if 1 <= k + d <= 100_000})
# the values a sum may meet beside normal numbers
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, np.nan)


def _bits(x):
    return struct.pack("<d", x)


@needs_cc
@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.integers(1, 300), st.sampled_from(SUM_EDGES), st.integers(1, 100_000)),
       seed=st.integers(0, 2**32 - 1), scale=st.integers(-320, 300),
       specials=st.sets(st.sampled_from(SPECIALS)), rate=st.floats(0.0, 0.5))
@example(n=1, seed=0, scale=0, specials={-0.0}, rate=1.0)
@example(n=9, seed=0, scale=0, specials={-0.0}, rate=1.0)
@example(n=200, seed=0, scale=0, specials={-0.0}, rate=1.0)
@example(n=129, seed=1, scale=-310, specials=set(), rate=0.0)
def test_kernel_sum_is_numpy_sum_bitwise(n, seed, scale, specials, rate):
    """The kernel's madelung_sum, which its renormalization uses, gives
    np.sum's bits on float64 arrays of 1 to 100,000 values, subnormal,
    signed-zero and infinite ones among them, so a numpy release that sums
    in another order fails here instead of moving output bits. A NaN sum
    is compared as NaN only: its sign and payload are not kept."""
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):  # scales may overflow, and sums meet inf - inf
        a = rng.standard_normal(n) * 10.0 ** (scale + rng.uniform(-8.0, 8.0, n))
        if specials:
            spots = rng.random(n) < rate
            a[spots] = rng.choice(sorted(specials, key=repr), size=int(spots.sum()))
        want = float(np.sum(a))
    got = madelung_kernel().madelung_sum(a.ctypes.data, n)
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert _bits(got) == _bits(want), (got, want)
