"""Finite-difference stencils on uniform grids.

Interior cells use second-order centered differences. Non-periodic fields
fall back to one-sided three-point stencils of the same order at the two
boundary cells, so linear and quadratic fields differentiate exactly
everywhere.
"""

import numpy as np
from scipy.sparse import csc_matrix, diags


def gradient(f, dx):
    """First derivative, O(dx^2)."""
    f = np.asarray(f, dtype=float)
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return g


def hamiltonian(n, dx, potential, hbar=1.0, m=1.0, boundary="periodic"):
    """Sparse discrete Hamiltonian: 3-point kinetic term plus diagonal potential.

    The hard wall sits at the domain edge, half a cell beyond the outermost
    cell center. Odd reflection of the amplitude about that face gives a
    corner diagonal of -3 in the Laplacian.
    """
    if boundary not in ("periodic", "hardwall"):
        raise ValueError(f"unknown boundary '{boundary}'")
    main = np.full(n, -2.0)
    off = np.ones(n - 1)
    lap = diags([off, main, off], [-1, 0, 1], format="lil")
    if boundary == "periodic":
        lap[0, -1] = 1.0
        lap[-1, 0] = 1.0
    else:
        lap[0, 0] = -3.0
        lap[-1, -1] = -3.0
    kin = csc_matrix(lap) * (-(hbar**2) / (2.0 * m * dx**2))
    return kin + diags(np.asarray(potential, dtype=float), format="csc")
