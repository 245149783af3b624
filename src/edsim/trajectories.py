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

from .dynamics import _steps_for
from .errors import NodeError, StabilityError, TraceCoverageError
from .operators import _LOG_TINY, gradient, log_gradient
from .seeding import restore_rng, stream_rng
from .state import Grid1D

CURRENT_FLOW = "current_flow"
ENTROPIC_DIFFUSION = "entropic_diffusion"
SAMPLER_MODES = (CURRENT_FLOW, ENTROPIC_DIFFUSION)


@dataclass(frozen=True)
class Ensemble:
    """Particle positions at a common time, plus the RNG stream they came from.

    rng_state is the bit-generator state after the draws that produced this
    ensemble; advancing continues the stream, and step k runs at t = k dt
    wherever the advance started, so splitting one advance into two is
    bitwise identical to doing it in one call.
    """

    positions: np.ndarray
    t: float
    rng_state: dict

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))


def draw_cells(cdf, u) -> np.ndarray:
    """The categorical cell draw: for each u, the first cell whose
    cumulative weight reaches it. A cell of zero weight is never drawn for
    0 < u <= cdf[-1]; a u past the last entry lands in the last cell."""
    return np.minimum(np.searchsorted(cdf, u, side="left"), len(cdf) - 1)


def inverse_cdf_sample(rho, x_min, dx, count, rng) -> np.ndarray:
    """Draw from a piecewise-constant cell density: a categorical cell draw
    plus uniform jitter inside the selected cell."""
    w = np.asarray(rho, dtype=float) * dx
    cdf = np.cumsum(w)
    u = rng.random(count) * cdf[-1]
    idx = draw_cells(cdf, u)
    frac = (u - (cdf[idx] - w[idx])) / np.maximum(w[idx], _LOG_TINY)
    return x_min + (idx + np.clip(frac, 0.0, 1.0)) * dx


def sample_initial(rho, grid: Grid1D, n: int, seed) -> Ensemble:
    """n independent draws from the cell density rho."""
    if n < 1:
        raise ValueError("need at least one particle")
    rng = stream_rng(seed, "trajectories")
    pos = inverse_cdf_sample(rho, grid.x_min, grid.dx, int(n), rng)
    return Ensemble(pos, 0.0, rng.bit_generator.state)


def _apply_boundary(x, grid):
    """Map positions back into the domain, in place; a non-finite one raises StabilityError."""
    if not np.isfinite(x).all():
        raise StabilityError("non-finite particle position")
    if grid.boundary == "periodic":
        x -= grid.x_min
        # np.mod(x, L) bit for bit in about half its time: fmod keeps the
        # sign of x, so lift negative remainders by L, and + 0.0 turns a
        # -0.0 remainder into the +0.0 that np.mod gives
        np.fmod(x, grid.length, out=x)
        np.add(x, grid.length, out=x, where=x < 0)
        x += 0.0
        x += grid.x_min
        return
    # reflecting wall, once per particle and pass; a float reflection may not
    # bring a far position closer, so fold what is still outside after 8
    for _ in range(8):
        over = x > grid.x_max
        under = x < grid.x_min
        if not (over.any() or under.any()):
            return
        x[over] = 2.0 * grid.x_max - x[over]
        x[under] = 2.0 * grid.x_min - x[under]
    out = (x > grid.x_max) | (x < grid.x_min)
    u = np.mod(x[out] - grid.x_min, 2.0 * grid.length)
    folded = grid.x_min + np.where(u > grid.length, 2.0 * grid.length - u, u)
    x[out] = np.minimum(folded, grid.x_max)


class GridInterp:
    """np.interp(x, cells, fp) on a uniform grid, bit for bit.

    A call finds each position's cell bracket from one division and one
    compare on each side, where np.interp runs a binary search per
    position, and reads the table fp there. The arithmetic is np.interp's:
    with cells[j] <= x < cells[j+1] and slope[j] = (fp[j+1] - fp[j]) /
    (cells[j+1] - cells[j]), the value is slope[j] * (x - cells[j]) + fp[j];
    it is fp[0] below cells[0], fp[-1] at or above cells[-1], and fp[j] on
    node j. Positions and slopes must be finite, as they are for the drift
    tables.

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

    def __call__(self, x, fp):
        """The table fp (one value per cell) at the positions x."""
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
        on_node = np.flatnonzero(d == 0.0)
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
    """A trace's snapshot fields and the drift each path law integrates,
    built once per trace.

    ts, rhos: snapshot times and densities. v_tab: the current_flow drift,
    the current velocity (hbar/m) dphi/dx, per snapshot. b_tab: the
    entropic_diffusion drift v + D dlog(rho)/dx per snapshot. diffusion:
    D = hbar/2m. node_floor: the trace's, kept to by the advance.
    """

    grid: Grid1D
    ts: np.ndarray
    rhos: np.ndarray
    v_tab: np.ndarray
    b_tab: np.ndarray
    diffusion: float
    node_floor: float

    @classmethod
    def from_trace(cls, trace) -> "TraceFields":
        """Each table is one stacked gradient at the trace's hbar and m; the
        build peaks at four arrays of the trace's size, 32 bytes a value."""
        p, cfg = trace.p, trace.cfg
        ts, rhos, phis = trace.field_arrays()
        dx = trace.grid.dx
        v_tab = gradient(phis, dx)
        del phis  # before the log density's array is made
        v_tab *= p.hbar / p.m
        diffusion = p.hbar / (2.0 * p.m)
        b_tab = log_gradient(rhos, dx)
        b_tab *= diffusion
        b_tab += v_tab
        return cls(trace.grid, ts, rhos, v_tab, b_tab, diffusion, cfg.node_floor)


def advance_ensemble(ens: Ensemble, fields: TraceFields, dt: float, mode: str,
                     t_target=None) -> Ensemble:
    """Euler(-Maruyama) advance of every particle from ens.t to t_target
    (default: the end of the trace), reading the law's drift table with
    linear interpolation in time and space, with the values np.interp
    gives, bit for bit, within the trace's boundary and node floor. Step k
    runs at t = k dt; ens.t and t_target must be whole numbers of dt steps.
    An error of step k carries the mode as its stage, k + 1 as its step and
    (k + 1) dt as its t.
    """
    if mode not in SAMPLER_MODES:
        raise ValueError(f"mode must be one of {SAMPLER_MODES}")
    ts, rhos, grid, node_floor = fields.ts, fields.rhos, fields.grid, fields.node_floor
    t_target = float(ts[-1]) if t_target is None else float(t_target)
    tol = 1e-9 * max(1.0, abs(float(ts[-1])))
    if ens.t < ts[0] - tol or t_target > ts[-1] + tol:
        raise TraceCoverageError(
            f"advance [{ens.t:g}, {t_target:g}] outside trace [{ts[0]:g}, {ts[-1]:g}]"
        )
    if t_target < ens.t - tol:
        raise TraceCoverageError("cannot advance backwards")
    steps = range(_steps_for(ens.t, dt), _steps_for(t_target, dt))
    diffusing = mode == ENTROPIC_DIFFUSION
    tab = fields.b_tab if diffusing else fields.v_tab
    noise_amp = np.sqrt(2.0 * fields.diffusion * dt)
    times, last = ts.tolist(), len(ts) - 2

    def blend(table, t):
        """table interpolated linearly in time between its snapshots."""
        j = min(max(bisect_right(times, t) - 1, 0), last)
        th = (t - times[j]) / (times[j + 1] - times[j])
        return (1.0 - th) * table[j] + th * table[j + 1]

    interp = GridInterp(grid.cells, grid.dx)
    rng = restore_rng(ens.rng_state)
    x = ens.positions.copy()
    for k in steps:
        drift = interp(x, blend(tab, k * dt))
        drift *= dt
        x += drift
        if diffusing:
            noise = rng.standard_normal(len(x))
            noise *= noise_amp
            x += noise
        t = (k + 1) * dt
        try:
            _apply_boundary(x, grid)
        except StabilityError as e:
            raise StabilityError(*e.args, stage=mode, step=k + 1, t=t) from None
        if diffusing and node_floor > 0:
            idx = np.clip(
                np.floor((x - grid.x_min) / grid.dx).astype(int), 0, grid.n - 1
            )
            rho_here = blend(rhos, t)[idx]
            if float(np.min(rho_here)) < node_floor:
                raise NodeError(
                    f"particle entered a cell with rho below {node_floor:g} "
                    f"(t={t:g}): drift d(log rho)/dx diverges there",
                    stage=mode, step=k + 1, t=t)
    return Ensemble(x, t_target, rng.bit_generator.state)
