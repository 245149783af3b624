"""Closed-form reference states and their exact time evolution.

These are the oracles the test suite measures the solvers against; none
of them call solver code.
"""

import math

import numpy as np

from .state import Grid1D, WaveFunction


def free_gaussian(x, t=0.0, sigma0=1.0, k0=0.0, x0=0.0, hbar=1.0, m=1.0):
    """Free Gaussian packet at time t.

    alpha = 1 + i hbar t / (2 m sigma0^2), xi = x - x0 - (hbar k0/m) t:

        psi = (2 pi sigma0^2)^(-1/4) alpha^(-1/2)
              exp(-xi^2/(4 sigma0^2 alpha) + i k0 (x - x0) - i hbar k0^2 t/(2m))
    """
    x = np.asarray(x, dtype=float)
    alpha = 1.0 + 1j * hbar * t / (2.0 * m * sigma0**2)
    xi = x - x0 - hbar * k0 * t / m
    pref = (2.0 * np.pi * sigma0**2) ** (-0.25) / np.sqrt(alpha)
    return pref * np.exp(
        -(xi**2) / (4.0 * sigma0**2 * alpha)
        + 1j * k0 * (x - x0)
        - 0.5j * hbar * k0**2 * t / m
    )


def free_gaussian_variance(t, sigma0=1.0, hbar=1.0, m=1.0):
    """sigma(t)^2 = sigma0^2 (1 + (hbar t / (2 m sigma0^2))^2)."""
    return sigma0**2 * (1.0 + (hbar * t / (2.0 * m * sigma0**2)) ** 2)


def plane_wave(grid: Grid1D, mode: int) -> WaveFunction:
    """exp(i k x)/sqrt(L) with k = 2 pi mode / L, exact on a periodic grid."""
    k = 2.0 * np.pi * mode / grid.length
    amp = np.exp(1j * k * grid.cells) / np.sqrt(grid.length)
    return WaveFunction(grid, amp).normalized()


def harmonic_eigenstate(x, level=0, m=1.0, omega=1.0, hbar=1.0):
    """Real eigenfunction of the harmonic well, energy hbar omega (level + 1/2)."""
    from scipy.special import eval_hermite  # kept off the CLI's import path

    x = np.asarray(x, dtype=float)
    a = m * omega / hbar
    xi = np.sqrt(a) * x
    norm = (a / np.pi) ** 0.25 / np.sqrt(2.0**level * float(math.factorial(level)))
    return norm * eval_hermite(level, xi) * np.exp(-0.5 * xi**2)


def coherent_state(x, x0=0.0, k0=0.0, m=1.0, omega=1.0, hbar=1.0):
    """Displaced and boosted ground state of the harmonic well.

    Center follows x0 cos(omega t) + (hbar k0 / m omega) sin(omega t) under
    exact evolution.
    """
    x = np.asarray(x, dtype=float)
    return harmonic_eigenstate(x - x0, 0, m, omega, hbar) * np.exp(1j * k0 * x)


def box_eigenstate(x, level, x_min, length):
    """sqrt(2/L) sin(n pi (x - x_min)/L), n = level + 1; vanishes at both walls."""
    x = np.asarray(x, dtype=float)
    n = level + 1
    return np.sqrt(2.0 / length) * np.sin(n * np.pi * (x - x_min) / length)

