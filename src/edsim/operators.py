"""Finite-difference stencils on uniform grids.

Interior cells use second-order centered differences. Non-periodic fields
fall back to one-sided three-point stencils of the same order at the two
boundary cells, so linear and quadratic fields differentiate exactly
everywhere.
"""

import numpy as np


# floor under a density before its log: a vacuum cell gets a finite log
_LOG_TINY = 1e-300


def gradient(f, dx):
    """First derivative along the last axis, O(dx^2). A stack of rows
    differentiates each row as on its own, bit for bit, and the interior is
    written in place: the result is the only array of f's size allocated."""
    f = np.asarray(f, dtype=float)
    g = np.empty_like(f)
    np.subtract(f[..., 2:], f[..., :-2], out=g[..., 1:-1])
    g[..., 1:-1] /= 2.0 * dx
    g[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * dx)
    g[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * dx)
    return g


def log_gradient(rho, dx):
    """d(log rho)/dx along the last axis, with rho floored at _LOG_TINY."""
    return gradient(np.log(np.maximum(rho, _LOG_TINY)), dx)


def hamiltonian(grid, p):
    """Discrete Hamiltonian of p on grid, 3-point kinetic term plus diagonal
    potential, as its three bands (diagonal, off_diagonal, corner).

    diagonal is an array of n entries; off_diagonal, the entry next to the
    diagonal on both sides, and corner, the entries H[0, n-1] = H[n-1, 0]
    that close a periodic grid (0.0 on a hard wall), are numbers. The hard
    wall sits at the domain edge, half a cell beyond the outermost cell
    center. Odd reflection of the amplitude about that face gives a corner
    diagonal of -3 in the Laplacian.
    """
    periodic = grid.boundary == "periodic"
    k = p.hbar**2 / (2.0 * p.m * grid.dx**2)
    diag = np.full(grid.n, 2.0 * k)
    if not periodic:
        diag[0] = diag[-1] = 3.0 * k
    diag += p.potential_on(grid)
    return diag, -k, (-k if periodic else 0.0)
