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
# moves bits. No flag may let the compiler reorder or approximate arithmetic.
KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
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
    """(madelung_rk4, madelung_work_size) of the compiled step, built into
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
    rk4, size = lib.madelung_rk4, lib.madelung_work_size
    ptr, long = ctypes.c_void_p, ctypes.c_long
    rk4.argtypes = (ptr, ptr, ptr, long, ctypes.c_int, ptr, ptr, ctypes.c_double, ptr, ptr)
    rk4.restype = None
    size.argtypes = (long,)
    size.restype = ctypes.c_size_t
    return rk4, size


def _address(a):
    return a.__array_interface__["data"][0]


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

    A step is one call of the compiled kernel of _madelung.c or, where
    madelung_kernel cannot build it, _numpy_rk4: the same operations in the
    same order, so the same bits. Both renormalize in numpy.
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
        self._kernel = None
        if (kernel := madelung_kernel()) is not None:
            # raw addresses: ndpointer checks would cost a third of a step at n = 1024
            rk4, size = kernel
            self._kwork = np.empty(size(n))
            self._kernel = functools.partial(
                rk4, *map(_address, (self._consts, self._vq, self._kwork)), n, self.periodic)

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

    def step(self, rho, phi, dt):
        """One RK4 step plus renormalization. Returns (rho, phi, |Z - 1|) in
        new arrays; the inputs are left untouched."""
        rho = np.ascontiguousarray(rho, dtype=np.float64)
        phi = np.ascontiguousarray(phi, dtype=np.float64)
        if rho.shape != (self.n,) or phi.shape != (self.n,):
            raise ValueError(f"rho and phi must hold {self.n} values")
        if self._kernel is None:
            rho, phi = self._numpy_rk4(rho, phi, dt)
        else:
            out = np.empty(self.n), np.empty(self.n)
            self._kernel(_address(rho), _address(phi), dt, *map(_address, out))
            rho, phi = out
        np.maximum(rho, 0.0, out=rho)
        z = float(rho.sum() * self.dx)
        if not (math.isfinite(z) and z > 0.0 and np.isfinite(phi).all()):
            return rho, phi, np.inf
        rho /= z
        return rho, phi, abs(z - 1.0)


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

    One loop steps either engine. An engine gives a start state, a step
    state -> (state, renormalization correction) and a snapshot state ->
    (HydroState, norm). The loop records a snapshot every snapshot_stride
    steps, always including t = 0 and t_final, with a diagnostics row that
    carries the worst correction since the previous snapshot. To any
    SimulationError of a step it adds the t that step was taking the run
    to, in the message, and the engine, the step and that t as the error's
    stage, step and t. The
    density-phase engine starts from madelung_start (dt bound, node check
    active with cfg.node_floor).
    """
    grid, dt, node_floor = initial.grid, cfg.dt, cfg.node_floor
    n_steps = _steps_for(cfg.t_final, dt)
    trace = EvolutionTrace(cfg, p, grid)

    if cfg.engine == "schrodinger":
        state = initial.normalized()
        solver = _cn_solver(grid, p, dt)

        def step(psi):
            return schrodinger_step(psi, p, dt, solver), 0.0

        def snapshot(psi):
            return to_hydro(psi, node_floor=0.0), psi.norm()
    else:
        h0 = madelung_start(initial, p, cfg)
        state = h0.rho, h0.phi
        eng = _MadelungEngine(grid, p)

        def step(rho_phi):
            rho, phi, dev = eng.step(*rho_phi, dt)
            if not dev <= RENORM_LIMIT:
                raise StabilityError(
                    f"renormalization correction {dev:.3g} exceeds {RENORM_LIMIT:g}"
                    if math.isfinite(dev) else "non-finite field")
            if node_floor > 0 and float(np.min(rho)) < node_floor:
                raise NodeError(f"density {float(np.min(rho)):.3e} below node floor")
            return (rho, phi), dev

        def snapshot(rho_phi):  # step returns new arrays
            return HydroState(grid, *rho_phi), float(np.sum(rho_phi[0]) * grid.dx)

    worst_renorm = 0.0
    for k in range(n_steps + 1):
        t = k * dt
        if k % cfg.snapshot_stride == 0 or k == n_steps:
            h, norm = snapshot(state)
            trace.snapshots.append((t, h))
            trace.diagnostics.append(DiagnosticsRow(t, norm, energy(h, p), worst_renorm))
            worst_renorm = 0.0
        if k == n_steps:
            break
        try:
            state, dev = step(state)
        except SimulationError as e:
            raise type(e)(f"{e} (t={t + dt:g})", stage=cfg.engine, step=k + 1,
                          t=t + dt) from None
        worst_renorm = max(worst_renorm, dev)
    return trace
