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
  sqrt(max(rho, 0) + hydro_floor), which bounds it in vacuum;
* phase blend: the phase equation is weighted by
  rho^2 / (rho^2 + hydro_floor^2), freezing the phase where there is no
  mass to transport (the unweighted vacuum phase equation is a
  pressureless Burgers flow that folds into caustics);
* masked dissipation: second- plus fourth-difference smoothing scaled by
  1 / (1 + (rho/guard_scale)^2), active only below guard_scale.

All three act on densities far below physical relevance (defaults 1e-12
and 1e-8, against packet densities of order 1); the transported density
itself is never floored, and any mass the guards move shows up in the
logged renormalization correction. Setting hydro_floor = 0 and
dissipation = False recovers the bare scheme, which blows up to
non-finite fields within a fraction of a time unit on localized states
(see the tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np
from scipy.sparse import identity as sparse_identity
from scipy.sparse.linalg import splu

from .errors import NodeError, SolverError, StabilityError
from .operators import gradient, hamiltonian
from .state import (
    DEFAULT_NODE_FLOOR,
    Grid1D,
    HydroState,
    PhysicalParams,
    WaveFunction,
    to_hydro,
)

_LOG_TINY = 1e-300

_ENGINES = ("schrodinger", "madelung")
_BOUNDARIES = ("periodic", "hardwall")


def _steps_for(t_final, dt):
    n = int(round(t_final / dt))
    if abs(n * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError(f"t_final={t_final:g} is not an integer number of dt={dt:g} steps")
    return n


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    t_final: float
    engine: str = "schrodinger"
    snapshot_stride: int = 1
    boundary: str = "periodic"
    c_stab: float = 0.1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0 <= self.t_final < np.inf:
            raise ValueError("t_final must be finite and non-negative")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")
        if not self.c_stab > 0:
            raise ValueError("c_stab must be positive")
        _steps_for(self.t_final, self.dt)

    def stability_limit(self, grid: Grid1D, p: PhysicalParams) -> float:
        """Largest admissible dt for the density-phase engine."""
        return self.c_stab * p.m * grid.dx**2 / p.hbar

    def check_stability(self, grid: Grid1D, p: PhysicalParams) -> None:
        # the bound needs dx, so it cannot be checked before the grid is known
        if self.engine == "madelung":
            limit = self.stability_limit(grid, p)
            if self.dt > limit * (1.0 + 1e-12):
                raise StabilityError(
                    f"dt={self.dt:g} exceeds the stability bound "
                    f"{limit:g} = c_stab m dx^2 / hbar"
                )


@dataclass(frozen=True)
class MadelungOptions:
    """Low-density guard settings; see the module docstring."""

    hydro_floor: float = 1e-12
    guard_scale: float = 1e-8
    dissipation: bool = True


@dataclass(frozen=True)
class DiagnosticsRow:
    t: float
    norm: float
    energy: float
    total_prob: float
    renorm_correction: float


@dataclass
class EvolutionTrace:
    engine: str
    grid: Grid1D
    snapshots: List[Tuple[float, object]] = field(default_factory=list)
    diagnostics: List[DiagnosticsRow] = field(default_factory=list)

    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.snapshots])

    def field_arrays(self, node_floor: float = 0.0):
        """Snapshots as (times, rho matrix, phi matrix) for interpolation."""
        ts, rhos, phis = [], [], []
        for t, s in self.snapshots:
            h = s if isinstance(s, HydroState) else to_hydro(s, node_floor)
            ts.append(t)
            rhos.append(h.rho)
            phis.append(h.phi)
        return np.array(ts), np.array(rhos), np.array(phis)


def energy(h: HydroState, p: PhysicalParams, node_floor: float = DEFAULT_NODE_FLOOR) -> float:
    """E = sum rho [ (hbar^2/2m)(grad phi)^2 + (hbar^2/8m)(grad log rho)^2 + V ] dx."""
    if node_floor > 0 and float(np.min(h.rho)) <= node_floor:
        raise NodeError(f"density at or below node floor {node_floor:g}")
    dx = h.grid.dx
    gp = gradient(h.phi, dx)
    gl = gradient(np.log(np.maximum(h.rho, _LOG_TINY)), dx)
    dens = (p.hbar**2 / (2.0 * p.m)) * gp**2 + (p.hbar**2 / (8.0 * p.m)) * gl**2
    return float(np.sum(h.rho * (dens + p.potential_on(h.grid))) * dx)


def l1_distance(rho_a: np.ndarray, rho_b: np.ndarray, dx: float) -> float:
    return float(np.sum(np.abs(np.asarray(rho_a) - np.asarray(rho_b))) * dx)


# ---------------------------------------------------------------------------
# wavefunction engine (Crank-Nicolson)


@lru_cache(maxsize=16)
def _cn_factor(n, dx, dt, hbar, m, v_bytes, boundary):
    V = np.frombuffer(v_bytes, dtype=float)
    H = hamiltonian(n, dx, V, hbar, m, boundary)
    eye = sparse_identity(n, format="csc", dtype=complex)
    A = (eye + 0.5j * dt / hbar * H).tocsc()
    B = (eye - 0.5j * dt / hbar * H).tocsc()
    return splu(A), B


def schrodinger_step(
    psi: WaveFunction, p: PhysicalParams, dt: float, boundary: str = "periodic"
) -> WaveFunction:
    """One Crank-Nicolson step: solve (I + i dt H/2hbar) psi' = (I - i dt H/2hbar) psi."""
    V = p.potential_on(psi.grid)
    lu, B = _cn_factor(
        psi.grid.n, psi.grid.dx, float(dt), p.hbar, p.m, V.tobytes(), boundary
    )
    out = lu.solve(B @ psi.amplitudes)
    if not np.all(np.isfinite(out.view(float))):
        raise SolverError("linear solve returned non-finite amplitudes")
    return WaveFunction(psi.grid, out)


# ---------------------------------------------------------------------------
# density-phase engine


def _pad(f, kind, periodic, offset=0.0):
    # two ghost cells per side; the hard wall mirrors about the domain edge
    if periodic:
        return np.concatenate((f[-2:] - offset, f, f[:2] + offset))
    if kind == "even":
        return np.concatenate((f[1::-1], f, f[:-3:-1]))
    return np.concatenate((-f[1::-1], f, -f[:-3:-1]))


class _MadelungEngine:
    def __init__(self, grid: Grid1D, p: PhysicalParams, boundary: str, opts: MadelungOptions):
        self.dx = grid.dx
        self.n = grid.n
        self.hbar = p.hbar
        self.m = p.m
        self.V = p.potential_on(grid)
        self.periodic = boundary == "periodic"
        self.floor = opts.hydro_floor
        self.guard = opts.guard_scale
        self.dissipation = opts.dissipation
        # dissipation rates scale with the grid so that dt * rate is constant
        # at the stability bound
        self.r2 = 4.0 * self.hbar / (self.m * self.dx**2)
        self.r4 = 1.0 * self.hbar / (self.m * self.dx**2)

    def _winding(self, phi):
        # unwrapped phase of a periodic state advances by an exact multiple
        # of 2 pi across the domain; estimate it from the end-to-end slope
        west = (phi[-1] - phi[0]) * self.n / (self.n - 1.0)
        return 2.0 * np.pi * np.round(west / (2.0 * np.pi))

    def rhs(self, rho, phi):
        dx, hbar, m = self.dx, self.hbar, self.m
        off = self._winding(phi) if self.periodic else 0.0
        pe = _pad(phi, "even", self.periodic, off)
        gp = (pe[3:-1] - pe[1:-3]) / (2.0 * dx)
        flux = rho * (hbar / m) * gp
        fe = _pad(flux, "odd", self.periodic)  # odd ghost: zero flux through the wall
        drho = -(fe[3:-1] - fe[1:-3]) / (2.0 * dx)

        rp = np.maximum(rho, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            sq = np.sqrt(rp + self.floor)
            se = _pad(sq, "odd", self.periodic)  # odd ghost: sqrt(rho) -> 0 at the wall
            quantum = (
                -(hbar**2 / (2.0 * m)) * ((se[3:-1] - 2.0 * sq + se[1:-3]) / dx**2) / sq
            )
            if self.floor > 0:
                w = rp * rp / (rp * rp + self.floor * self.floor)
            else:
                w = 1.0  # bare scheme
            dphi = -w * ((hbar / (2.0 * m)) * gp**2 + self.V / hbar + quantum / hbar)

        if self.dissipation:
            msk = 1.0 / (1.0 + (rp / self.guard) ** 2)
            re = _pad(rho, "even", self.periodic)
            d2r = re[3:-1] - 2.0 * rho + re[1:-3]
            d4r = re[4:] - 4.0 * re[3:-1] + 6.0 * rho - 4.0 * re[1:-3] + re[:-4]
            d2p = pe[3:-1] - 2.0 * phi + pe[1:-3]
            d4p = pe[4:] - 4.0 * pe[3:-1] + 6.0 * phi - 4.0 * pe[1:-3] + pe[:-4]
            drho += msk * (self.r2 * 0.25 * d2r - self.r4 / 16.0 * d4r)
            dphi += msk * (self.r2 * 0.25 * d2p - self.r4 / 16.0 * d4p)
        return drho, dphi

    def step(self, rho, phi, dt):
        """One RK4 step plus renormalization. Returns (rho, phi, |Z - 1|)."""
        with np.errstate(all="ignore"):  # a diverging substep is caught below
            k1r, k1p = self.rhs(rho, phi)
            k2r, k2p = self.rhs(rho + 0.5 * dt * k1r, phi + 0.5 * dt * k1p)
            k3r, k3p = self.rhs(rho + 0.5 * dt * k2r, phi + 0.5 * dt * k2p)
            k4r, k4p = self.rhs(rho + dt * k3r, phi + dt * k3p)
            rho = rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
            phi = phi + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        np.maximum(rho, 0.0, out=rho)
        z = float(rho.sum() * self.dx)
        if not (np.isfinite(z) and z > 0.0 and np.all(np.isfinite(phi))):
            return rho, phi, np.inf
        rho /= z
        return rho, phi, abs(z - 1.0)


def madelung_step(
    h: HydroState,
    p: PhysicalParams,
    dt: float,
    boundary: str = "periodic",
    node_floor: float = DEFAULT_NODE_FLOOR,
    opts: Optional[MadelungOptions] = None,
) -> HydroState:
    """Advance the density-phase pair by one RK4 step of the coupled equations.

    drho/dt = -d(rho v)/dx with v = (hbar/m) dphi/dx, and
    hbar dphi/dt = -[(hbar^2/2m)(dphi/dx)^2 + V - (hbar^2/2m) (d2 sqrt(rho)/dx2)/sqrt(rho)].
    """
    opts = opts or MadelungOptions()
    if node_floor > 0 and float(np.min(h.rho)) < node_floor:
        raise NodeError(f"density below node floor {node_floor:g}")
    cfg = EvolutionConfig(dt=dt, t_final=dt, engine="madelung", boundary=boundary)
    cfg.check_stability(h.grid, p)
    eng = _MadelungEngine(h.grid, p, boundary, opts)
    rho, phi, dev = eng.step(h.rho.copy(), h.phi.copy(), dt)
    if not np.isfinite(dev):
        raise StabilityError("non-finite field after one step")
    if node_floor > 0 and float(np.min(rho)) < node_floor:
        raise NodeError(f"density fell below node floor {node_floor:g}")
    return HydroState(h.grid, rho, phi)


# ---------------------------------------------------------------------------
# driver


def _diag_row(t, h, p, norm, renorm):
    return DiagnosticsRow(
        t=t,
        norm=norm,
        energy=energy(h, p, node_floor=0.0),
        total_prob=float(np.sum(h.rho) * h.grid.dx),
        renorm_correction=renorm,
    )


def evolve(
    initial: WaveFunction,
    p: PhysicalParams,
    cfg: EvolutionConfig,
    node_floor: float = DEFAULT_NODE_FLOOR,
    madelung_opts: Optional[MadelungOptions] = None,
) -> EvolutionTrace:
    """Run the configured engine over [0, t_final], recording snapshots.

    Snapshots land every snapshot_stride steps, always including t = 0 and
    t_final. The density-phase engine converts the initial state once via
    to_hydro (node check active with the given floor) and records
    HydroState snapshots; diagnostic energies skip the node check.
    """
    grid = initial.grid
    n_steps = _steps_for(cfg.t_final, cfg.dt)
    snap_at = set(range(0, n_steps + 1, cfg.snapshot_stride))
    snap_at.add(n_steps)
    trace = EvolutionTrace(engine=cfg.engine, grid=grid)

    if cfg.engine == "schrodinger":
        psi = initial.normalized()
        for step in range(n_steps + 1):
            t = step * cfg.dt
            if step in snap_at:
                trace.snapshots.append((t, psi))
                h = to_hydro(psi, node_floor=0.0)
                trace.diagnostics.append(_diag_row(t, h, p, psi.norm(), 0.0))
            if step == n_steps:
                break
            try:
                psi = schrodinger_step(psi, p, cfg.dt, cfg.boundary)
            except SolverError as e:
                raise SolverError(f"{e} (t={t + cfg.dt:g})") from None
        return trace

    cfg.check_stability(grid, p)
    h0 = to_hydro(initial.normalized(), node_floor)
    eng = _MadelungEngine(grid, p, cfg.boundary, madelung_opts or MadelungOptions())
    rho, phi = h0.rho.copy(), h0.phi.copy()
    worst_renorm = 0.0
    for step in range(n_steps + 1):
        t = step * cfg.dt
        if step in snap_at:
            h = HydroState(grid, rho.copy(), phi.copy())
            trace.snapshots.append((t, h))
            trace.diagnostics.append(
                _diag_row(t, h, p, float(np.sum(rho) * grid.dx), worst_renorm)
            )
            worst_renorm = 0.0
        if step == n_steps:
            break
        rho, phi, dev = eng.step(rho, phi, cfg.dt)
        if not np.isfinite(dev):
            raise StabilityError(f"non-finite field (t={t + cfg.dt:g})")
        if node_floor > 0 and float(np.min(rho)) < node_floor:
            raise NodeError(
                f"density {float(np.min(rho)):.3e} below node floor (t={t + cfg.dt:g})"
            )
        worst_renorm = max(worst_renorm, dev)
    return trace
