"""Definite-position ensembles whose marginal tracks the evolving density.

Two path laws are provided. CurrentFlow follows the deterministic
characteristics of the continuity equation, dx = v dt. EntropicDiffusion
adds a diffusion D = hbar/2m with the compensating drift
b = v + D d(log rho)/dx, the unique drift for which the associated
Fokker-Planck equation carries the same current: algebraically,
-d(b rho)/dx + D d2(rho)/dx2 = -d(v rho)/dx. The two laws share every
marginal distribution and differ only path-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NodeError, TraceCoverageError
from .operators import gradient
from .seeding import restore_rng, stream_rng
from .state import DEFAULT_NODE_FLOOR, Grid1D, PhysicalParams

CURRENT_FLOW = "current_flow"
ENTROPIC_DIFFUSION = "entropic_diffusion"
SAMPLER_MODES = (CURRENT_FLOW, ENTROPIC_DIFFUSION)

_LOG_TINY = 1e-300


@dataclass(frozen=True)
class Ensemble:
    """Particle positions at a common time, plus the RNG stream they came from.

    rng_state is the bit-generator state after the draws that produced this
    ensemble; advancing continues the stream, so splitting one advance into
    two is bitwise identical to doing it in one call.
    """

    positions: np.ndarray
    t: float
    seed: int
    rng_state: dict

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))


def inverse_cdf_sample(rho, x_min, dx, count, rng) -> np.ndarray:
    """Draw from a piecewise-constant cell density: inverse CDF plus uniform
    jitter inside the selected cell."""
    w = np.asarray(rho, dtype=float) * dx
    cdf = np.cumsum(w)
    u = rng.random(count) * cdf[-1]
    idx = np.minimum(np.searchsorted(cdf, u, side="left"), len(w) - 1)
    frac = (u - (cdf[idx] - w[idx])) / np.maximum(w[idx], _LOG_TINY)
    return x_min + (idx + np.clip(frac, 0.0, 1.0)) * dx


def sample_initial(rho, grid: Grid1D, n: int, seed) -> Ensemble:
    """n independent draws from the cell density rho."""
    if n < 1:
        raise ValueError("need at least one particle")
    rng = stream_rng(seed, "trajectories")
    pos = inverse_cdf_sample(rho, grid.x_min, grid.dx, int(n), rng)
    return Ensemble(pos, 0.0, int(seed), rng.bit_generator.state)


def _apply_boundary(x, grid, boundary):
    if boundary == "periodic":
        return grid.x_min + np.mod(x - grid.x_min, grid.length)
    # reflecting wall; displacements are small, but loop in case of corners
    for _ in range(8):
        over = x > grid.x_max
        under = x < grid.x_min
        if not (over.any() or under.any()):
            break
        x = np.where(over, 2.0 * grid.x_max - x, x)
        x = np.where(under, 2.0 * grid.x_min - x, x)
    return x


@dataclass(frozen=True)
class TraceFields:
    """A trace's snapshot fields and drift tables, built once per trace.

    ts, rhos: snapshot times and densities. v_tab: current velocity
    (hbar/m) dphi/dx per snapshot. u_tab: dlog(rho)/dx per snapshot, the
    osmotic drift over D. The tables depend on hbar and m, which are kept so
    that advancing with a different PhysicalParams is refused.
    """

    grid: Grid1D
    ts: np.ndarray
    rhos: np.ndarray
    v_tab: np.ndarray
    u_tab: np.ndarray
    hbar: float
    m: float

    @classmethod
    def from_trace(cls, trace, p: PhysicalParams) -> "TraceFields":
        ts, rhos, phis = trace.field_arrays()
        dx = trace.grid.dx
        v_tab = np.array([(p.hbar / p.m) * gradient(ph, dx) for ph in phis])
        u_tab = np.array([gradient(np.log(np.maximum(r, _LOG_TINY)), dx) for r in rhos])
        return cls(trace.grid, ts, rhos, v_tab, u_tab, p.hbar, p.m)


def advance_ensemble(
    ens: Ensemble,
    trace,
    dt: float,
    mode: str,
    p: PhysicalParams,
    boundary: str = "periodic",
    node_floor: float = DEFAULT_NODE_FLOOR,
    t_target=None,
) -> Ensemble:
    """Euler(-Maruyama) advance of every particle from ens.t to t_target
    (default: the end of the trace), reading fields from the trace with
    linear interpolation in time and space.

    trace is a TraceFields or an EvolutionTrace; pass a TraceFields when
    advancing the same trace more than once, so its fields and drift
    tables are built only once.
    """
    if mode not in SAMPLER_MODES:
        raise ValueError(f"mode must be one of {SAMPLER_MODES}")
    f = trace if isinstance(trace, TraceFields) else TraceFields.from_trace(trace, p)
    if (f.hbar, f.m) != (p.hbar, p.m):
        raise ValueError(
            f"drift tables were built for hbar={f.hbar:g}, m={f.m:g}, "
            f"not hbar={p.hbar:g}, m={p.m:g}"
        )
    ts, rhos, v_tab, u_tab, grid = f.ts, f.rhos, f.v_tab, f.u_tab, f.grid
    t_target = float(ts[-1]) if t_target is None else float(t_target)
    tol = 1e-9 * max(1.0, abs(float(ts[-1])))
    if ens.t < ts[0] - tol or t_target > ts[-1] + tol:
        raise TraceCoverageError(
            f"advance [{ens.t:g}, {t_target:g}] outside trace [{ts[0]:g}, {ts[-1]:g}]"
        )
    if t_target < ens.t - tol:
        raise TraceCoverageError("cannot advance backwards")

    n_steps = int(round((t_target - ens.t) / dt))
    if abs(ens.t + n_steps * dt - t_target) > tol:
        raise ValueError("advance interval must be an integer number of dt steps")

    cells = grid.cells
    diffusion = p.hbar / (2.0 * p.m)
    noise_amp = np.sqrt(2.0 * diffusion * dt)

    def blend(tab, t):
        k = int(np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2))
        th = (t - ts[k]) / (ts[k + 1] - ts[k])
        return (1.0 - th) * tab[k] + th * tab[k + 1]

    rng = restore_rng(ens.rng_state)
    x = ens.positions.copy()
    for s in range(n_steps):
        t = ens.t + s * dt
        drift = np.interp(x, cells, blend(v_tab, t))
        if mode == ENTROPIC_DIFFUSION:
            drift = drift + diffusion * np.interp(x, cells, blend(u_tab, t))
            x = x + drift * dt + noise_amp * rng.standard_normal(len(x))
        else:
            x = x + drift * dt
        x = _apply_boundary(x, grid, boundary)
        if mode == ENTROPIC_DIFFUSION and node_floor > 0:
            idx = np.clip(
                np.floor((x - grid.x_min) / grid.dx).astype(int), 0, grid.n - 1
            )
            rho_here = blend(rhos, t + dt)[idx]
            if float(np.min(rho_here)) < node_floor:
                raise NodeError(
                    f"particle entered a cell with rho below {node_floor:g} "
                    f"(t={t + dt:g}): drift d(log rho)/dx diverges there"
                )
    return Ensemble(x, t_target, ens.seed, rng.bit_generator.state)
