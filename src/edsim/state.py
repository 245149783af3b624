"""State representations: complex amplitudes and the density-phase pair.

All types are value objects: construct, validate, never mutate. The phase
field is stored unwrapped (a real field on the line, not an angle), since
it carries physical content beyond a direction: its gradient is the
current velocity and its combination with log density gives the entropy
field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NodeError

# default floor under which the density-phase description is rejected;
# values <= 0 disable the check (long-domain packets have tails that
# legitimately underflow any fixed floor)
DEFAULT_NODE_FLOOR = 1e-12

_NORM_TOL = 1e-10

BOUNDARIES = ("periodic", "hardwall")


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid: cell j sits at x_min + (j + 1/2) dx, on a
    ring ("periodic") or in a box with walls at x_min and x_max ("hardwall")."""

    x_min: float
    x_max: float
    n: int
    boundary: str = "periodic"

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"grid needs n >= 8, got {self.n}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def cells(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n) + 0.5) * self.dx


def _zero_potential(x):
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class PhysicalParams:
    hbar: float = 1.0
    m: float = 1.0
    potential: Optional[Callable] = None

    def __post_init__(self):
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")
        if not self.m > 0:
            raise ValueError("m must be positive")
        if self.potential is None:
            object.__setattr__(self, "potential", _zero_potential)

    def potential_on(self, grid: Grid1D) -> np.ndarray:
        v = np.asarray(self.potential(grid.cells), dtype=float)
        if v.ndim == 0:
            v = np.full(grid.n, float(v))
        if v.shape != (grid.n,):
            raise ValueError("potential must evaluate to one value per cell")
        if not np.all(np.isfinite(v)):
            raise ValueError("potential must be finite on every grid cell")
        return v


@dataclass(frozen=True)
class WaveFunction:
    grid: Grid1D
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.grid.n,):
            raise ValueError("amplitudes must have one value per cell")
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dx))

    def normalized(self) -> "WaveFunction":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return WaveFunction(self.grid, self.amplitudes / nrm)

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class HydroState:
    """Density rho and unwrapped phase phi on a grid.

    rho must be non-negative and integrate to 1 within 1e-10, and phi must
    be finite; NaN fails both. phi is NOT reduced modulo 2*pi.
    """

    grid: Grid1D
    rho: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if rho.shape != (self.grid.n,) or phi.shape != (self.grid.n,):
            raise ValueError("rho and phi must have one value per cell")
        if not np.all(rho >= 0):
            raise ValueError("rho must be non-negative and not NaN")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi must be finite")
        total = float(rho.sum() * self.grid.dx)
        if not abs(total - 1.0) <= _NORM_TOL:
            raise ValueError(f"rho must integrate to 1, got {total!r}")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "phi", phi)


def to_hydro(psi: WaveFunction, node_floor: float = DEFAULT_NODE_FLOOR) -> HydroState:
    """Convert amplitudes to the density-phase pair.

    The phase is unwrapped along the grid: each adjacent jump is the
    principal value in (-pi, pi] of the phase of the cell overlap, and the
    leftmost cell is anchored to its principal argument. Raises NodeError
    if any cell density is below node_floor (unwrapping is ill-defined at
    nodes); node_floor <= 0 disables the check.
    """
    amp = psi.amplitudes
    rho = np.abs(amp) ** 2
    if node_floor > 0 and float(np.min(rho)) < node_floor:
        raise NodeError(
            f"density {float(np.min(rho)):.3e} below node floor {node_floor:g}: "
            "phase unwrap undefined at nodes"
        )
    jumps = np.angle(amp[1:] * np.conj(amp[:-1]))
    phi = np.concatenate(([np.angle(amp[0])], jumps)).cumsum()
    total = float(rho.sum() * psi.grid.dx)
    return HydroState(psi.grid, rho / total, phi)

