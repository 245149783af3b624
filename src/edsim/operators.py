"""Finite-difference stencils on uniform grids.

Interior cells use second-order centered differences. Non-periodic fields
fall back to one-sided three-point stencils of the same order at the two
boundary cells, so linear and quadratic fields differentiate exactly
everywhere.
"""

import numpy as np


def gradient(f, dx):
    """First derivative, O(dx^2)."""
    f = np.asarray(f, dtype=float)
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return g


def hamiltonian(n, dx, potential, hbar=1.0, m=1.0, boundary="periodic"):
    """Discrete Hamiltonian, 3-point kinetic term plus diagonal potential, as
    its three bands (diagonal, off_diagonal, corner).

    diagonal is an array of n entries; off_diagonal, the entry next to the
    diagonal on both sides, and corner, the entries H[0, n-1] = H[n-1, 0]
    that close a periodic grid (0.0 on a hard wall), are numbers. The hard
    wall sits at the domain edge, half a cell beyond the outermost cell
    center. Odd reflection of the amplitude about that face gives a corner
    diagonal of -3 in the Laplacian.
    """
    if boundary not in ("periodic", "hardwall"):
        raise ValueError(f"unknown boundary '{boundary}'")
    k = hbar**2 / (2.0 * m * dx**2)
    diag = np.full(n, 2.0 * k)
    if boundary == "hardwall":
        diag[0] = diag[-1] = 3.0 * k
    diag += np.asarray(potential, dtype=float)
    return diag, -k, (-k if boundary == "periodic" else 0.0)
