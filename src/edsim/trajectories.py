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

from bisect import bisect_right
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
    """Map positions back into the domain, in place."""
    if boundary == "periodic":
        x -= grid.x_min
        np.mod(x, grid.length, out=x)
        x += grid.x_min
        return
    # reflecting wall; displacements are small, but loop in case of corners
    for _ in range(8):
        over = x > grid.x_max
        under = x < grid.x_min
        if not (over.any() or under.any()):
            break
        x[over] = 2.0 * grid.x_max - x[over]
        x[under] = 2.0 * grid.x_min - x[under]


class GridInterp:
    """np.interp(x, cells, fp) on a uniform grid, bit for bit, for several
    tables read at the same positions.

    locate(x) finds each position's cell bracket once, from one division
    and one compare on each side, where np.interp runs a binary search per
    position and per table; values(at, fp) then reads a table there. The
    arithmetic is np.interp's: with cells[j] <= x < cells[j+1] and
    slope[j] = (fp[j+1] - fp[j]) / (cells[j+1] - cells[j]), the value is
    slope[j] * (x - cells[j]) + fp[j]; it is fp[0] below cells[0], fp[-1] at
    or above cells[-1], and fp[j] on node j. Positions and slopes must be
    finite, as they are for the drift tables.

    Brackets are numbered i = j + 1 in [0, n], so that i = 0 (below the
    first node) and i = n (at or past the last) index padded tables: a
    left node cells[0] and fp[0] with slope +0.0 at i = 0, and cells[-1]
    and fp[-1] with slope -0.0 at i = n. The slope times the offset is then
    -0.0 at both ends, which leaves fp[0] and fp[-1] exact, -0.0 included.
    """

    def __init__(self, cells, dx):
        n = len(cells)
        self.cells = cells
        self.dx = dx
        self._left = np.concatenate((cells[:1], cells))
        self._spacing = np.diff(cells)
        self._slope = np.empty(n + 1)
        self._slope[0], self._slope[n] = 0.0, -0.0
        self._fp = np.empty(n + 1)

    def locate(self, x):
        """(i, x - left node, positions on a node) for every position."""
        cells = self.cells
        est = x - cells[0]
        est /= self.dx
        np.clip(est, 0.0, len(cells) - 2, out=est)
        i = est.astype(np.intp)
        i += 1
        # the estimate is off by at most one cell either way
        i -= x < self._left[i]
        i += x >= cells[i]
        d = x - self._left[i]
        return i, d, np.flatnonzero(d == 0.0)

    def values(self, at, fp):
        """The table fp (one value per cell) at the located positions."""
        i, d, on_node = at
        f, s = self._fp, self._slope
        f[0] = fp[0]
        f[1:] = fp
        np.subtract(fp[1:], fp[:-1], out=s[1:-1])
        s[1:-1] /= self._spacing
        out = s[i]
        out *= d
        out += f[i]
        if on_node.size:
            # slope * 0 + fp[j] would turn fp[j] = -0.0 into +0.0
            out[on_node] = f[i[on_node]]
        return out


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
    linear interpolation in time and space. Each step finds every
    particle's cell once (GridInterp) and reads each drift table there,
    with the values np.interp gives, bit for bit.

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

    diffusion = p.hbar / (2.0 * p.m)
    noise_amp = np.sqrt(2.0 * diffusion * dt)
    times, last = ts.tolist(), len(ts) - 2

    def snapshot(t):
        """The interval k of ts that t falls in, and how far along it."""
        k = min(max(bisect_right(times, t) - 1, 0), last)
        return k, (t - times[k]) / (times[k + 1] - times[k])

    def blend(tab, k, th):
        return (1.0 - th) * tab[k] + th * tab[k + 1]

    interp = GridInterp(grid.cells, grid.dx)
    rng = restore_rng(ens.rng_state)
    x = ens.positions.copy()
    for s in range(n_steps):
        t = ens.t + s * dt
        k, th = snapshot(t)
        at = interp.locate(x)
        drift = interp.values(at, blend(v_tab, k, th))
        if mode == ENTROPIC_DIFFUSION:
            osmotic = interp.values(at, blend(u_tab, k, th))
            osmotic *= diffusion
            drift += osmotic
            drift *= dt
            x += drift
            noise = rng.standard_normal(len(x))
            noise *= noise_amp
            x += noise
        else:
            drift *= dt
            x += drift
        _apply_boundary(x, grid, boundary)
        if mode == ENTROPIC_DIFFUSION and node_floor > 0:
            idx = np.clip(
                np.floor((x - grid.x_min) / grid.dx).astype(int), 0, grid.n - 1
            )
            rho_here = blend(rhos, *snapshot(t + dt))[idx]
            if float(np.min(rho_here)) < node_floor:
                raise NodeError(
                    f"particle entered a cell with rho below {node_floor:g} "
                    f"(t={t + dt:g}): drift d(log rho)/dx diverges there"
                )
    return Ensemble(x, t_target, ens.seed, rng.bit_generator.state)
