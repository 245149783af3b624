"""Two interchangeable time-evolution engines and the energy diagnostic.

The wavefunction engine is Crank-Nicolson on the 3-point Hamiltonian:
unconditionally stable, norm-preserving to solver roundoff. The
density-phase engine integrates the coupled continuity and phase
equations with classical RK4 and centered stencils, renormalizing the
density each step and logging the deviation.

Low-density guards (density-phase engine). The bare discretization of
the coupled pair is linearly unstable wherever log(rho) is steep: a
frozen-coefficient analysis of the discrete equations has a growing
branch with rate |d(log rho)/dx| sin(kappa dx)/(2 dx), which roundoff
seeds in the far tails of any localized packet, independent of dt.
Three smooth guards confine the integration to the region that carries
probability:

* cushioned curvature: the quantum potential is evaluated from
  sqrt(max(rho, 0) + HYDRO_FLOOR), which bounds it in vacuum;
* phase blend: the phase equation is weighted by
  rho^2 / (rho^2 + HYDRO_FLOOR^2), freezing the phase where there is no
  mass to transport (the unweighted vacuum phase equation is a
  pressureless Burgers flow that folds into caustics);
* masked dissipation: second- plus fourth-difference smoothing scaled by
  1 / (1 + (rho/GUARD_SCALE)^2), active only below GUARD_SCALE.

All three act on densities far below physical relevance (HYDRO_FLOOR =
1e-12 and GUARD_SCALE = 1e-8, against packet densities of order 1); the
transported density itself is never floored, and any mass the guards move
shows up in the logged renormalization correction. Without the guards the
bare scheme blows up to non-finite fields within a fraction of a time
unit on localized states (the tests integrate it to show this).

Blow-up check (density-phase engine). A step whose renormalization
correction |Z - 1| exceeds RENORM_LIMIT = 1e-3, or is not finite, raises
StabilityError with the time it reached. A healthy step moves the norm
by roundoff and the guards' tail mass, under 1e-9 on every test, demo
and benchmark run; a step that creates or destroys a thousandth of the
probability is no longer integrating the continuity equation, even when
its fields are still finite.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import importlib.util
import math
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import List, Tuple

import numpy as np

from .errors import NodeError, SimulationError, SolverError, StabilityError
from .operators import gradient, hamiltonian, log_gradient
from .state import (
    DEFAULT_NODE_FLOOR,
    Grid1D,
    HydroState,
    PhysicalParams,
    WaveFunction,
    to_hydro,
)


def load_linalg(module):
    """scipy.linalg's compiled module scipy.linalg.<module> (_flapack for
    LAPACK, _fblas for BLAS), loaded from its file.

    `import scipy.linalg.lapack` would run scipy.linalg's package init,
    which sets up scipy's array-API layer and loads numpy.f2py,
    numpy.testing and numpy.ma, about 0.3 s of start-up for a few wrappers.
    scipy.linalg.lapack and scipy.linalg.blas re-export these modules'
    wrappers, so callers get the same objects either way. Nothing loads
    before the first call, so start-up never pays for it."""
    name = "scipy.linalg." + module
    if name not in sys.modules:
        import scipy  # its _distributor_init sets up bundled-library paths
        stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", module)
        path = next(stem + s for s in EXTENSION_SUFFIXES if os.path.exists(stem + s))
        spec = importlib.util.spec_from_loader(name, ExtensionFileLoader(name, path))
        loaded = importlib.util.module_from_spec(spec)
        sys.modules[name] = loaded
        spec.loader.exec_module(loaded)
    return sys.modules[name]


# largest |Z - 1| one density-phase step may renormalize away; see above
RENORM_LIMIT = 1e-3
# the density-phase engine's dt bound is C_STAB m dx^2 / hbar
C_STAB = 0.1
# the low-density guards of the density-phase engine; see above
HYDRO_FLOOR = 1e-12
GUARD_SCALE = 1e-8

ENGINES = ("schrodinger", "madelung")


def _steps_for(t, dt):
    """The whole number of dt steps from 0 to t: the one clock of evolve and
    of the ensemble advance, whose step k runs at t = k dt."""
    if not t / dt < math.inf:
        raise ValueError(f"t={t:g} is too many dt={dt:g} steps to count")
    n = int(round(t / dt))
    if abs(n * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"t={t:g} is not a whole number of dt={dt:g} steps")
    return n


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    t_final: float
    engine: str = "schrodinger"
    snapshot_stride: int = 1
    node_floor: float = DEFAULT_NODE_FLOOR  # <= 0 disables the node checks

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be finite and positive")
        if not 0 <= self.t_final < np.inf:
            raise ValueError("t_final must be finite and non-negative")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if not math.isfinite(self.node_floor):
            raise ValueError("node_floor must be finite")
        _steps_for(self.t_final, self.dt)

    def n_snapshots(self) -> int:
        """How many snapshots evolve records: every snapshot_stride steps
        from t = 0, plus t_final."""
        return -(-_steps_for(self.t_final, self.dt) // self.snapshot_stride) + 1

    def snapshot_times(self) -> List[float]:
        """The times evolve records snapshots at, without evolving:
        t = k dt for every snapshot_stride-th step k and the last."""
        n = _steps_for(self.t_final, self.dt)
        return [k * self.dt for k in (*range(0, n, self.snapshot_stride), n)]

    def stability_limit(self, grid: Grid1D, p: PhysicalParams) -> float:
        """Largest admissible dt for the density-phase engine."""
        return C_STAB * p.m * grid.dx**2 / p.hbar


@dataclass(frozen=True)
class DiagnosticsRow:
    t: float
    norm: float
    energy: float
    renorm_correction: float


@dataclass
class EvolutionTrace:
    """Snapshots as (t, HydroState): the engine's own state for the
    density-phase engine, and to_hydro(psi, node_floor=0.0) as evolve made
    it for the diagnostics row for the wavefunction engine, so field_arrays
    never converts a snapshot a second time. cfg and p: what evolve ran with."""

    cfg: EvolutionConfig
    p: PhysicalParams
    grid: Grid1D
    snapshots: List[Tuple[float, HydroState]] = field(default_factory=list)
    diagnostics: List[DiagnosticsRow] = field(default_factory=list)

    def field_arrays(self):
        """Snapshots as (times, rho matrix, phi matrix) for interpolation."""
        return (np.array([t for t, _ in self.snapshots]),
                np.array([h.rho for _, h in self.snapshots]),
                np.array([h.phi for _, h in self.snapshots]))


def energy(h: HydroState, p: PhysicalParams) -> float:
    """E = sum rho [ (hbar^2/2m)(grad phi)^2 + (hbar^2/8m)(grad log rho)^2 + V ] dx."""
    dx = h.grid.dx
    gp = gradient(h.phi, dx)
    gl = log_gradient(h.rho, dx)
    dens = (p.hbar**2 / (2.0 * p.m)) * gp**2 + (p.hbar**2 / (8.0 * p.m)) * gl**2
    return float(np.sum(h.rho * (dens + p.potential_on(h.grid))) * dx)


def l1_distance(rho_a: np.ndarray, rho_b: np.ndarray, dx: float) -> float:
    return float(np.sum(np.abs(np.asarray(rho_a) - np.asarray(rho_b))) * dx)


# ---------------------------------------------------------------------------
# wavefunction engine (Crank-Nicolson)


def _cn_solver(grid: Grid1D, p: PhysicalParams, dt: float):
    """b -> A^-1 b for the Crank-Nicolson matrix A = I + i dt H/2hbar,
    factored once by LAPACK's gttrf.

    A is tridiagonal plus, on a periodic grid, the two corners c. Those go
    in by Sherman-Morrison (Numerical Recipes 2.7): A = T + u v^T with
    u = (g, 0, ..., 0, c), v = (1, 0, ..., 0, c/g) and g = -A[0, 0], so T
    is A's tridiagonal part with A[0, 0] - g and A[n-1, n-1] - c^2/g on its
    ends, and A^-1 b = y - (v.y / (1 + v.z)) z with T y = b and T z = u.
    """
    diag, off, corner = hamiltonian(grid, p)
    a = 0.5j * dt / p.hbar
    d = 1.0 + a * diag
    e = np.full(grid.n - 1, a * off)
    c = a * corner
    if corner:
        g = -d[0]
        d[0] -= g
        d[-1] -= c * c / g
    lapack = load_linalg("_flapack")
    dl, d, du, du2, ipiv, info = lapack.zgttrf(e, d, e)
    if info != 0:
        raise SolverError(f"Crank-Nicolson matrix is singular (gttrf info {info})")

    def solve(b):
        return lapack.zgttrs(dl, d, du, du2, ipiv, b)[0]

    if not corner:
        return solve
    u = np.zeros(grid.n, dtype=complex)
    u[0], u[-1] = g, c
    with np.errstate(all="ignore"):  # a non-finite correction is refused below
        z = solve(u)
        w = c / g
        scale = 1.0 / (1.0 + z[0] + w * z[-1])
    if not (np.isfinite(scale) and np.all(np.isfinite(z.view(float)))):
        raise SolverError("Crank-Nicolson cyclic correction is not finite")

    def solve_cyclic(b):
        y = solve(b)
        y -= (scale * (y[0] + w * y[-1])) * z
        return y

    return solve_cyclic


def schrodinger_step(
    psi: WaveFunction,
    p: PhysicalParams,
    dt: float,
    solver=None,
) -> WaveFunction:
    """One Crank-Nicolson step: solve (I + i dt H/2hbar) psi' = (I - i dt H/2hbar) psi.

    With A the left side, the right side is 2I - A, so psi' = 2 A^-1 psi - psi.
    solver, when given, is b -> A^-1 b for exactly these psi.grid, p and dt,
    built once by a caller that takes many steps; by default the step
    factors A itself.
    """
    solve = solver or _cn_solver(psi.grid, p, dt)
    out = solve(psi.amplitudes)
    # doubling as a sum, not a product with 2 + 0i: x + inf i stays x + inf i,
    # with no 0 * inf in its real part, and the check below reports it
    np.add(out, out, out=out)
    out -= psi.amplitudes
    if not np.isfinite(out).all():  # a complex value is finite when both parts are
        raise SolverError("linear solve returned non-finite amplitudes")
    return WaveFunction(psi.grid, out)


# ---------------------------------------------------------------------------
# the density-phase step, compiled

KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_madelung.c")
# -ffp-contract=off keeps each a * b + c two rounded operations: GCC's default
# in its GNU C mode fuses them into one FMA where the host has one, which
# moves bits. -fno-math-errno lets sqrt be one instruction, and
# -fno-trapping-math lets max(rho, 0) become a branchless select, so that
# -O3 vectorizes the loops; neither changes a result. No flag may let the
# compiler reorder or approximate arithmetic, and none ties the library to
# the CPU that built it: the cache key names only platform.machine().
KERNEL_FLAGS = ("-O3", "-fno-math-errno", "-fno-trapping-math", "-ffp-contract=off", "-fPIC",
                "-shared")
# beside the package's bytecode: written by whoever runs the package first
KERNEL_CACHE = os.path.join(os.path.dirname(KERNEL_SOURCE), "__pycache__")
_DIGEST = 32  # a cached library ends with the sha256 of the bytes before it


def kernel_command(source, target, flags=KERNEL_FLAGS):
    """The command that compiles the C file source into the library target."""
    return ["cc", *flags, source, "-o", target, "-lm"]


def kernel_path(source, flags=KERNEL_FLAGS):
    """Where the library built from the C text source (bytes) with flags is
    cached: named by the sha256 of the text, the build command and the
    machine."""
    words = (*kernel_command("", "", flags), platform.machine())
    key = hashlib.sha256(b"\0".join((source, *(w.encode() for w in words))))
    return os.path.join(KERNEL_CACHE, f"_madelung.{key.hexdigest()[:16]}.so")


def build_kernel(source, path, flags=KERNEL_FLAGS):
    """Compile the C file source into path. cc writes into a temp directory
    beside path; the library gets its sha256 appended and is renamed into
    place, so a reader finds a whole library or none, also while another
    process builds the same one."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as d:
        tmp = os.path.join(d, os.path.basename(path))
        subprocess.run(kernel_command(source, tmp, flags), check=True, capture_output=True,
                       timeout=300)
        with open(tmp, "r+b") as fh:
            fh.write(hashlib.sha256(fh.read()).digest())
        os.replace(tmp, path)


def _intact(path):
    """Whether path holds a library that ends with its own sha256, as
    build_kernel leaves it: a truncated or damaged file is never loaded."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return False
    return len(data) > _DIGEST and data[-_DIGEST:] == hashlib.sha256(data[:-_DIGEST]).digest()


@functools.cache
def madelung_kernel():
    """The compiled library of _madelung.c, its functions typed, built into
    KERNEL_CACHE on first use and rebuilt once if the cached file is not
    intact; or None, after one line on stderr, when it cannot be built or
    loaded (no compiler, a cache that cannot be written, a failed compile).
    Then _MadelungEngine steps with numpy, to the same bits."""
    try:
        with open(KERNEL_SOURCE, "rb") as fh:
            path = kernel_path(fh.read())
        if not _intact(path):
            build_kernel(KERNEL_SOURCE, path)
        lib = ctypes.CDLL(path)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"edsim: no compiled density-phase step ({e}); the numpy step runs instead",
              file=sys.stderr, flush=True)
        return None
    ptr, long, int_, double = ctypes.c_void_p, ctypes.c_long, ctypes.c_int, ctypes.c_double
    for f, restype, *argtypes in (
            (lib.madelung_work_size, ctypes.c_size_t, long),
            (lib.madelung_run, int_, ptr, ptr, ptr, ptr, long, int_, double, double, ptr, ptr,
             double, double, long),
            (lib.madelung_sum, double, ptr, long)):
        f.restype, f.argtypes = restype, argtypes
    return lib


def _address(a):
    return a.__array_interface__["data"][0]


# how a run of density-phase steps ends, as madelung_run answers
RAN, NON_FINITE, RENORM, NODE = range(4)
# the most steps one madelung_run call takes: Python handles a signal, such
# as Ctrl-C, only between calls
RUN_CHUNK = 1000


def _step_error(kind, value):
    """The error of a density-phase step that failed as kind on value (its
    |Z - 1| or its least density)."""
    if kind == NON_FINITE:
        return StabilityError("non-finite field")
    if kind == RENORM:
        return StabilityError(f"renormalization correction {value:.3g} exceeds {RENORM_LIMIT:g}")
    return NodeError(f"density {value:.3e} below node floor")


# ---------------------------------------------------------------------------
# density-phase engine


class _MadelungEngine:
    """RK4 stepper for the density-phase pair.

    _rhs folds the grid constants: gp = pe_e - pe_w is 2 dx times the phase
    gradient; vq = -V/hbar - 2 kq holds the -2 sq of the curvature stencil,
    kq = hbar / (2 m dx^2); w = rp^2 / (rp^2 + floor^2) weights the phase
    equation; and each field f gains msk ((c1/r4s)(f_e + f_w) - (c0/r4s) f
    - (f_ee + f_ww)) with msk = r4s g^2 / (rp^2 + g^2), the 5-point form of
    (r2/4 d2f - r4/16 d4f) / (1 + (rp/g)^2), g the guard scale.

    The compiled kernel of _madelung.c steps with madelung_run, which
    renormalizes and checks each step in C with a copy of numpy's pairwise
    sum: step is one call of it for one step, and run takes a snapshot
    stride in calls of up to RUN_CHUNK steps. Where madelung_kernel cannot
    build it, step is _numpy_rk4, the same operations in the same order, so
    the same bits, renormalized in numpy, and run is a loop over step.
    """

    def __init__(self, grid: Grid1D, p: PhysicalParams):
        self.dx = dx = grid.dx
        self.n = n = grid.n
        hbar, m = p.hbar, p.m
        self.periodic = grid.boundary == "periodic"
        kq = hbar / (2.0 * m * dx**2)
        self._vq = -(p.potential_on(grid) / hbar) - 2.0 * kq
        # dissipation rates scale with the grid so that dt * rate is constant
        # at the stability bound
        r2 = 4.0 * hbar / (m * dx**2)
        r4 = 1.0 * hbar / (m * dx**2)
        r4s = r4 / 16.0
        g2 = GUARD_SCALE * GUARD_SCALE
        # kr, kq, kg, c1/r4s, c0/r4s, the floor and its square, g^2 and
        # r4s g^2, in the kernel's order
        self._consts = np.array([(hbar / m) / (2.0 * dx) ** 2, kq, -(hbar / (8.0 * m * dx**2)),
                                 (r2 / 4.0 + r4 / 4.0) / r4s, (r2 / 2.0 + 3.0 * r4 / 8.0) / r4s,
                                 HYDRO_FLOOR, HYDRO_FLOOR * HYDRO_FLOOR, g2, r4s * g2])
        self._run = None
        if (lib := madelung_kernel()) is not None:
            # raw addresses: ndpointer checks would cost a third of a step at n = 1024
            self._kwork = np.empty(lib.madelung_work_size(n))
            self._out = np.empty(3)
            rows = [_address(a) for a in (self._consts, self._vq, self._kwork, self._out)]
            self._run = functools.partial(lib.madelung_run, *rows, n, self.periodic, dx,
                                          RENORM_LIMIT)

    def _pad(self, f, odd=False, off=0.0):
        """f with two ghost cells per side: periodic images shifted by -+off,
        or a mirror about the wall (odd: the field changes sign there)."""
        if self.periodic:
            return np.concatenate((f[-2:] - off, f, f[:2] + off))
        west, east = f[1::-1], f[:-3:-1]
        return np.concatenate((-west, f, -east) if odd else (west, f, east))

    def _rhs(self, rho, phi):
        """drho/dt and dphi/dt of (rho, phi), in the kernel's operation order."""
        kr, kq, kg, c1, c0, floor, floor2, g2, r4s_g2 = self._consts
        off = 0.0
        if self.periodic:  # the phase gains whole turns across the ring: count them
            west = float(phi[-1] - phi[0]) * self.n / (self.n - 1.0)
            off = 2.0 * math.pi * round(west / (2.0 * math.pi), 0)
        pe, re = self._pad(phi, off=off), self._pad(rho)
        gp = pe[3:-1] - pe[1:-3]
        # odd ghosts: no flux through the wall, and sqrt(rho) -> 0 there
        fe = self._pad(rho * gp, odd=True)
        rp = np.maximum(rho, 0.0)
        sq = np.sqrt(rp + floor)
        se = self._pad(sq, odd=True)
        rp2 = rp * rp
        dphi = ((gp * gp * kg + self._vq + (se[3:-1] + se[1:-3]) * kq / sq)
                * (rp2 / (rp2 + floor2)))
        msk = r4s_g2 / (rp2 + g2)
        sr, sp = (((f[3:-1] + f[1:-3]) * c1 - f[2:-2] * c0) - (f[4:] + f[:-4]) for f in (re, pe))
        return (fe[1:-3] - fe[3:-1]) * kr + sr * msk, dphi + sp * msk

    def _numpy_rk4(self, rho, phi, dt):
        """The kernel's RK4 step over _rhs, before the renormalization."""
        with np.errstate(all="ignore"):  # a diverging substep is caught by step
            k = [self._rhs(rho, phi)]
            # stage i integrates from (rho, phi) + h k_(i-1)
            for h in (0.5 * dt, 0.5 * dt, dt):
                k.append(self._rhs(rho + k[-1][0] * h, phi + k[-1][1] * h))
            return [y + (((b + c) * 2.0 + a) + d) * (dt / 6.0)
                    for y, a, b, c, d in zip((rho, phi), *k)]

    def _fields(self, rho, phi):
        """Copies of rho and phi as float64 rows, one value per cell: the
        kernel steps in place."""
        rho = np.array(rho, dtype=np.float64, order="C")
        phi = np.array(phi, dtype=np.float64, order="C")
        if rho.shape != (self.n,) or phi.shape != (self.n,):
            raise ValueError(f"rho and phi must hold {self.n} values")
        return rho, phi

    def step(self, rho, phi, dt):
        """One RK4 step plus renormalization. Returns (rho, phi, |Z - 1|) in
        new arrays; the inputs are left untouched."""
        rho, phi = self._fields(rho, phi)
        if self._run is not None:
            # no node floor, and the limit only stops the one step
            kind = self._run(_address(rho), _address(phi), dt, 0.0, 1)
            worst, _, value = self._out.tolist()
            return rho, phi, np.inf if kind == NON_FINITE else value if kind == RENORM else worst
        rho, phi = self._numpy_rk4(rho, phi, dt)
        np.maximum(rho, 0.0, out=rho)
        z = float(rho.sum() * self.dx)
        if not (math.isfinite(z) and z > 0.0 and np.isfinite(phi).all()):
            return rho, phi, np.inf
        rho /= z
        return rho, phi, abs(z - 1.0)

    def run(self, rho, phi, dt, steps, node_floor):
        """Up to steps steps from (rho, phi), each checked as evolve needs
        it: a step fails when a field is not finite, when |Z - 1| exceeds
        RENORM_LIMIT, or, with node_floor > 0, when a density falls below
        node_floor. Returns (rho, phi, the worst |Z - 1| of the steps that
        passed, None) in new arrays after the last step, or (..., (i,
        error)) when step i, counted from 0, fails with error."""
        worst = 0.0
        if self._run is None:
            for i in range(steps):
                rho, phi, dev = self.step(rho, phi, dt)
                if not dev <= RENORM_LIMIT:
                    return rho, phi, worst, (i, _step_error(
                        RENORM if math.isfinite(dev) else NON_FINITE, dev))
                if node_floor > 0 and (least := float(np.min(rho))) < node_floor:
                    return rho, phi, worst, (i, _step_error(NODE, least))
                worst = max(worst, dev)
            return rho, phi, worst, None
        rho, phi = self._fields(rho, phi)
        for start in range(0, steps, RUN_CHUNK):
            kind = self._run(_address(rho), _address(phi), dt, node_floor,
                             min(RUN_CHUNK, steps - start))
            chunk_worst, done, value = self._out.tolist()
            worst = max(worst, chunk_worst)
            if kind != RAN:
                return rho, phi, worst, (start + int(done), _step_error(kind, value))
        return rho, phi, worst, None


# ---------------------------------------------------------------------------
# driver


def madelung_start(initial: WaveFunction, p: PhysicalParams, cfg: EvolutionConfig) -> HydroState:
    """The density-phase engine's up-front checks, in order: the dt bound,
    then the conversion of the normalized initial state, which raises
    NodeError below cfg.node_floor. Returns the converted state."""
    limit = cfg.stability_limit(initial.grid, p)
    if cfg.dt > limit * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={cfg.dt:g} exceeds the stability bound {limit:g} = {C_STAB:g} m dx^2 / hbar")
    return to_hydro(initial.normalized(), cfg.node_floor)


def evolve(initial: WaveFunction, p: PhysicalParams, cfg: EvolutionConfig) -> EvolutionTrace:
    """Run the configured engine over [0, t_final], recording snapshots.

    One loop, over snapshot strides, steps either engine. An engine gives
    a start state, an advance (state, steps) -> (state, the worst
    renormalization correction, None), or (..., (i, error)) when its step
    i, counted from 0, fails, and a snapshot state -> (HydroState, norm).
    The loop records a snapshot every snapshot_stride steps, always
    including t = 0 and t_final, with a diagnostics row that carries the
    worst correction since the previous snapshot. To a failing step's
    SimulationError it adds the t that step was taking the run to, in the
    message, and the engine, the step and that t as the error's stage, step
    and t. The density-phase engine starts from madelung_start (dt bound,
    node check active with cfg.node_floor) and advances a stride per call
    of _MadelungEngine.run; Crank-Nicolson advances step by step.
    """
    grid, dt, node_floor = initial.grid, cfg.dt, cfg.node_floor
    n_steps = _steps_for(cfg.t_final, dt)
    trace = EvolutionTrace(cfg, p, grid)

    if cfg.engine == "schrodinger":
        state = initial.normalized()
        solver = _cn_solver(grid, p, dt)

        def advance(psi, steps):
            for i in range(steps):
                try:
                    psi = schrodinger_step(psi, p, dt, solver)
                except SimulationError as e:
                    return psi, 0.0, (i, e)
            return psi, 0.0, None

        def snapshot(psi):
            return to_hydro(psi, node_floor=0.0), psi.norm()
    else:
        h0 = madelung_start(initial, p, cfg)
        state = h0.rho, h0.phi
        eng = _MadelungEngine(grid, p)

        def advance(rho_phi, steps):
            rho, phi, worst, failed = eng.run(*rho_phi, dt, steps, node_floor)
            return (rho, phi), worst, failed

        def snapshot(rho_phi):  # run returns new arrays
            return HydroState(grid, *rho_phi), float(np.sum(rho_phi[0]) * grid.dx)

    worst_renorm, k = 0.0, 0
    while True:
        t = k * dt
        h, norm = snapshot(state)
        trace.snapshots.append((t, h))
        trace.diagnostics.append(DiagnosticsRow(t, norm, energy(h, p), worst_renorm))
        if k == n_steps:
            return trace
        steps = min(cfg.snapshot_stride, n_steps - k)
        state, worst_renorm, failed = advance(state, steps)
        if failed is not None:
            i, e = failed
            t = (k + i) * dt + dt
            raise type(e)(f"{e} (t={t:g})", stage=cfg.engine, step=k + i + 1, t=t) from None
        k += steps
