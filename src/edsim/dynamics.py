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

import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import List, Tuple

import numpy as np
import scipy

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
    wrappers, so callers get the same objects either way. `import scipy`
    above runs its _distributor_init, which sets up bundled-library paths."""
    name = "scipy.linalg." + module
    if name not in sys.modules:
        stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", module)
        path = next(stem + s for s in EXTENSION_SUFFIXES if os.path.exists(stem + s))
        spec = importlib.util.spec_from_loader(name, ExtensionFileLoader(name, path))
        loaded = importlib.util.module_from_spec(spec)
        sys.modules[name] = loaded
        spec.loader.exec_module(loaded)
    return sys.modules[name]


_flapack = load_linalg("_flapack")
zgttrf, zgttrs = _flapack.zgttrf, _flapack.zgttrs

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
    dl, d, du, du2, ipiv, info = zgttrf(e, d, e)
    if info != 0:
        raise SolverError(f"Crank-Nicolson matrix is singular (gttrf info {info})")

    def solve(b):
        return zgttrs(dl, d, du, du2, ipiv, b)[0]

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
# density-phase engine


class _MadelungEngine:
    """RK4 stepper for the density-phase pair on buffers built once.

    The padded state is one flat buffer of 2(n + 4) values, padded rho
    then padded phi, two ghost cells per side. The two interiors and the
    four ghosts between them form one contiguous slice of 2n + 4 values, as
    do the stage buffers, so each term that rho and phi share (the
    dissipation stencil, the RK4 stages and their sums) is one 1-d call.
    The four values between the rows are junk that no stencil reads: every
    ghost is written by index before its stencil. The flux and
    sqrt(rho + floor) live in (n + 4) buffers. Every term goes through out=
    ufuncs into preallocated work arrays, and a step allocates only the two
    arrays it returns.

    The grid constants are folded so that one right-hand side makes 26
    ufunc calls. With the unscaled centered difference gp = pe_e - pe_w of
    the phase, rp = max(rho, 0), sq = sqrt(rp + floor) and
    kq = hbar / (2 m dx^2):

        drho = (fe_w - fe_e) * (hbar/m)/(2dx)^2,  fe = rho * gp
        dphi = w * (-(hbar/(8 m dx^2)) gp^2 + (-V/hbar - 2 kq) + kq * (se_e + se_w) / sq)

    where the -2 kq is the -2 sq of the curvature stencil. gp^2 and rp^2
    are one square of the adjacent [gp, rp], and the phase weight and the
    dissipation mask come from one (2, n) division,

        [w, r4s msk] = [rp^2, r4s g^2] / (rp^2 + [floor^2, g^2]),

    g the guard scale, which is w = rp^2 / (rp^2 + floor^2) and
    msk = 1 / (1 + (rp/g)^2). Both rows f = rho, phi are then smoothed by

        df += r4s msk * ((c1/r4s)(ye + yw) - (c0/r4s) y - (yee + yww)),

    c1 = r2/4 + r4/4 and c0 = r2/2 + 3 r4/8, the 5-point form of
    msk (r2/4 d2f - r4/16 d4f).
    """

    def __init__(self, grid: Grid1D, p: PhysicalParams):
        self.dx = dx = grid.dx
        self.n = n = grid.n
        hbar, m = p.hbar, p.m
        self.periodic = grid.boundary == "periodic"
        kr = (hbar / m) / (2.0 * dx) ** 2
        kg = -(hbar / (8.0 * m * dx**2))
        kq = hbar / (2.0 * m * dx**2)
        vq = -(p.potential_on(grid) / hbar) - 2.0 * kq
        # dissipation rates scale with the grid so that dt * rate is constant
        # at the stability bound
        r2 = 4.0 * hbar / (m * dx**2)
        r4 = 1.0 * hbar / (m * dx**2)
        r4s = r4 / 16.0
        c1 = (r2 / 4.0 + r4 / 4.0) / r4s  # c1/r4s and c0/r4s of the docstring
        c0 = (r2 / 2.0 + 3.0 * r4 / 8.0) / r4s
        # scalar operands as 0-d arrays: a ufunc converts a Python float on
        # every call, which costs about as much as the arithmetic at n = 1024
        self._consts = (*(np.array(v) for v in (kr, kq, kg, c1, c0, HYDRO_FLOOR, 0.0, 2.0)), vq)

        # padded state, rho in pad[:s] and phi in pad[s:]; flux and
        # sqrt(rho + floor) buffers; and the views the stencils read:
        # interior, east and west neighbours. y spans both interiors and the
        # ghosts between them, and a row of any 2n + 4 buffer b is b[:n] or b[s:].
        s = n + 4
        pad, fe, se = np.zeros(2 * s), np.zeros(s), np.zeros(s)
        self._y = y = pad[2:-2]
        self._views = (pad[:s], pad[s:], y[:n], y[s:], pad[s + 3:-1], pad[s + 1:-3],
                       fe, fe[2:-2], fe[3:-1], fe[1:-3], se, se[2:-2], se[3:-1], se[1:-3],
                       y, pad[3:-1], pad[1:-3], pad[4:], pad[:-4])
        self._y0 = np.empty(2 * n + 4)
        self._k = [np.empty(2 * n + 4) for _ in range(4)]
        self._k_rows = [(k, k[:n], k[s:]) for k in self._k]
        # [gp, rp] and its square [gp^2, rp^2, r4s g^2], whose last 2n values
        # are the numerator of the weight (row 0) and mask (row 1) division;
        # the denominator is rp^2 + [floor^2, g^2]
        g2 = GUARD_SCALE * GUARD_SCALE
        gr, sq2, wm = np.empty(2 * n), np.empty(3 * n), np.empty((2, n))
        sq2[2 * n:] = r4s * g2
        fg = np.array([[HYDRO_FLOOR * HYDRO_FLOOR], [g2]])
        self._a2 = a2 = np.empty(2 * n + 4)
        self._rows = (self._y0[:n], self._y0[s:], a2[:n], a2[s:])
        self._work = (gr, gr[:n], gr[n:], sq2[:2 * n], sq2[:n], sq2[n:2 * n],
                      sq2[n:].reshape(2, n), np.empty(n), a2, a2[:n], a2[s:],
                      np.empty(2 * n + 4), fg, wm, wm[0], wm[1])

    def _winding(self, phi):
        # unwrapped phase of a periodic state advances by an exact multiple
        # of 2 pi across the domain; estimate it from the end-to-end slope
        west = float(phi[-1] - phi[0]) * self.n / (self.n - 1.0)
        return 2.0 * math.pi * round(west / (2.0 * math.pi), 0)

    def _ghosts(self, buf, odd, off=0.0):
        """Two ghost cells per side: periodic images shifted by -+off, or a
        mirror about the wall (odd: the field changes sign there)."""
        n = self.n
        if self.periodic:
            buf[0] = buf[n] - off
            buf[1] = buf[n + 1] - off
            buf[n + 2] = buf[2] + off
            buf[n + 3] = buf[3] + off
        elif odd:
            buf[0], buf[1], buf[n + 2], buf[n + 3] = -buf[3], -buf[2], -buf[n + 1], -buf[n]
        else:
            buf[0], buf[1], buf[n + 2], buf[n + 3] = buf[3], buf[2], buf[n + 1], buf[n]

    def _rhs(self, i):
        """Time derivatives of the state in the padded buffer's interiors,
        written into stage buffer i: drho/dt in its first n values, dphi/dt
        in its last n."""
        (re, pe, rho, phi, pe_e, pe_w, fe, flux, fe_e, fe_w, se, sq, se_e, se_w,
         y, ye, yw, yee, yww) = self._views
        gr, gp, rp, gr2, gp2, rp2, num, a, a2, a2_rho, a2_phi, c2, fg, wm, w, msk = self._work
        kr, kq, kg, c1, c0, floor, zero, _, vq = self._consts
        k, drho, dphi = self._k_rows[i]

        # gp = pe_e - pe_w, 2 dx times the phase gradient
        self._ghosts(pe, False, self._winding(phi) if self.periodic else 0.0)
        np.subtract(pe_e, pe_w, out=gp)
        # flux = rho * gp; odd ghost: zero flux through the wall
        np.multiply(rho, gp, out=flux)
        self._ghosts(fe, True)
        # drho = (fe_w - fe_e) * (hbar/m)/(2dx)^2
        np.subtract(fe_w, fe_e, out=drho)
        np.multiply(drho, kr, out=drho)

        # sq = sqrt(rp + floor), rp = max(rho, 0); odd ghost: sqrt(rho) -> 0
        # at the wall
        np.maximum(rho, zero, out=rp)
        np.add(rp, floor, out=sq)
        np.sqrt(sq, out=sq)
        self._ghosts(se, True)
        # dphi = -(hbar/(8 m dx^2)) gp^2 + (-V/hbar - 2 kq) + kq * (se_e + se_w) / sq
        np.add(se_e, se_w, out=a)
        np.multiply(a, kq, out=a)
        np.divide(a, sq, out=a)
        np.multiply(gr, gr, out=gr2)  # [gp^2, rp^2]
        np.multiply(gp2, kg, out=dphi)
        np.add(dphi, vq, out=dphi)
        np.add(dphi, a, out=dphi)

        # [w, r4s msk] = [rp^2, r4s g^2] / (rp^2 + [floor^2, g^2])
        np.add(rp2, fg, out=wm)
        np.divide(num, wm, out=wm)
        np.multiply(dphi, w, out=dphi)

        # for f = rho, phi (even ghosts, phi's shifted by the winding):
        # df += r4s msk * ((c1/r4s)(ye + yw) - (c0/r4s) y - (yee + yww))
        self._ghosts(re, False)
        np.add(ye, yw, out=a2)
        np.multiply(a2, c1, out=a2)
        np.multiply(y, c0, out=c2)
        np.subtract(a2, c2, out=a2)
        np.add(yee, yww, out=c2)
        np.subtract(a2, c2, out=a2)
        np.multiply(a2_rho, msk, out=a2_rho)
        np.multiply(a2_phi, msk, out=a2_phi)
        np.add(k, a2, out=k)

    def step(self, rho, phi, dt):
        """One RK4 step plus renormalization. Returns (rho, phi, |Z - 1|) in
        new arrays; the inputs are left untouched."""
        k, y, y0, a2 = self._k, self._y, self._y0, self._a2
        y0_rho, y0_phi, a2_rho, a2_phi = self._rows
        zero, two = self._consts[6:8]
        with np.errstate(all="ignore"):  # a diverging substep is caught below
            np.copyto(y0_rho, rho)
            np.copyto(y0_phi, phi)
            np.copyto(y, y0)
            self._rhs(0)
            # stage i integrates from y0 + h k_(i-1)
            for i, h in ((1, 0.5 * dt), (2, 0.5 * dt), (3, dt)):
                np.multiply(k[i - 1], h, out=y)
                np.add(y0, y, out=y)
                self._rhs(i)
            # y0 + (dt/6) (2 (k2 + k3) + k1 + k4)
            np.add(k[1], k[2], out=a2)
            np.multiply(a2, two, out=a2)
            np.add(a2, k[0], out=a2)
            np.add(a2, k[3], out=a2)
            np.multiply(a2, dt / 6.0, out=a2)
            rho = np.add(rho, a2_rho)
            phi = np.add(phi, a2_phi)
        np.maximum(rho, zero, out=rho)
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
    carries the worst correction since the previous snapshot, and adds
    the t of the step it was taking to any SimulationError. The
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
            raise type(e)(f"{e} (t={t + dt:g})") from None
        worst_renorm = max(worst_renorm, dev)
    return trace
