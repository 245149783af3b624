"""Unitary measurement devices: observable eigenstates mapped to position cells.

A device holds an orthonormal basis {a_i} of an N-dimensional outcome
space, arbitrary scalar eigenvalues, and N distinct target position
cells. Its unitary sends a_i to the indicator of cell x_i, so measuring
any observable reduces to detecting a position. The probability of
outcome i after the device acts equals |<a_i|psi>|^2 before it; that
identity is what the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BasisError, CellError, MonotonicityError
from .seeding import stream_rng
from .state import WaveFunction
from .trajectories import draw_cells

ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class DiscreteDevice:
    dim: int
    basis: np.ndarray  # rows are the eigenvectors a_i
    eigenvalues: np.ndarray
    target_cells: np.ndarray


def build_device(basis, target_cells, eigenvalues=None) -> DiscreteDevice:
    """Validate the basis and assemble the device.

    basis rows must be orthonormal and complete; target cells pairwise
    distinct cells of the N-cell grid, each in [0, N). Eigenvalues are
    arbitrary scalars (default 0..N-1): labels, not dynamics.
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise BasisError("basis must be a square matrix of row vectors")
    if not np.all(np.isfinite(basis)):
        # nan fails every "> ORTHO_TOL" comparison and would pass the checks
        raise BasisError("basis entries must be finite")
    dim = basis.shape[0]
    # the Gram matrix B B^H is freed before B^H B is formed
    deviation = _identity_deviation(basis @ basis.conj().T)
    if deviation > ORTHO_TOL:
        raise BasisError(f"basis not orthonormal: max Gram deviation {deviation:.2e}")
    comp = basis.conj().T @ basis  # sum_i |a_i><a_i|
    if _identity_deviation(comp) > ORTHO_TOL:
        raise BasisError("basis not complete")
    cells = np.asarray(target_cells, dtype=int)
    if cells.shape != (dim,):
        raise CellError("need one target cell per basis vector")
    if len(set(cells.tolist())) != dim:
        raise CellError("target cells must be pairwise distinct")
    if cells.min() < 0 or cells.max() >= dim:
        raise CellError(f"target cells must lie in [0, {dim})")
    eigenvalues = (
        np.arange(dim, dtype=complex)
        if eigenvalues is None
        else np.asarray(eigenvalues, dtype=complex)
    )
    if eigenvalues.shape != (dim,):
        raise ValueError("need one eigenvalue per basis vector")
    if not np.all(np.isfinite(eigenvalues)):
        raise BasisError("eigenvalues must be finite")
    # the device unitary U = sum_i |x_i><a_i| in slot order is conj(B). Its
    # unitarity and U a_i = e_i are the checks above: U^H U = conj(comp) and
    # U B^T = conj(B B^H), and _identity_deviation reads only abs(m) and
    # abs(diag(m) - 1), which conjugation leaves bit for bit.
    return DiscreteDevice(dim, basis, eigenvalues, cells)


def _identity_deviation(m) -> float:
    """max |m - I| over the entries of a square matrix: the same number as
    np.max(np.abs(m - np.eye(n))), with |m| as the only n x n temporary."""
    dev = np.abs(m)
    np.fill_diagonal(dev, np.abs(np.diagonal(m) - 1.0))
    return np.max(dev)


def identity_device(dim: int) -> DiscreteDevice:
    """Position measured directly: the basis is the cell indicators."""
    return build_device(np.eye(dim, dtype=complex), np.arange(dim))


def fourier_device(dim: int) -> DiscreteDevice:
    """Momentum-like device: discrete Fourier vectors as the basis.

    Entry (j, k) is exp(2 pi i jk/n) / sqrt(n), read from a table of the n
    distinct values at (jk mod n): the basis holds exactly n distinct
    entries, and no phase loses digits to a large jk. The n x n index
    matrix is the only temporary beside the basis, and it is freed before
    build_device forms its products."""
    j = np.arange(dim)
    table = np.exp(2j * np.pi * j / dim) / np.sqrt(dim)
    jk = np.outer(j, j)
    np.remainder(jk, dim, out=jk)
    basis = table[jk]
    del jk
    return build_device(basis, j, j.astype(complex))


def observable_matrix(dev: DiscreteDevice) -> np.ndarray:
    """A = sum_i lambda_i |a_i><a_i|."""
    return (dev.basis.T * dev.eigenvalues) @ dev.basis.conj()


def check_normal(a) -> bool:
    """True iff A commutes with its adjoint entrywise within ORTHO_TOL."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    return bool(np.max(np.abs(a @ a.conj().T - a.conj().T @ a)) < ORTHO_TOL)


def device_state(psi: WaveFunction) -> np.ndarray:
    """Embed a grid wavefunction into device space: unit vector of cell
    amplitudes, |component|^2 = cell probability."""
    return psi.amplitudes * np.sqrt(psi.grid.dx)


def born_probabilities(dev: DiscreteDevice, psi) -> np.ndarray:
    """p_i = |<a_i|psi>|^2; sums to 1 by completeness."""
    return np.abs(dev.basis @ np.conj(psi)) ** 2  # |<a_i|psi>| = |a_i . conj(psi)|


def apply_device(dev: DiscreteDevice, psi) -> np.ndarray:
    """psi' = U psi with U = conj(B); component i of psi' lives at target
    cell x_i."""
    return np.conj(dev.basis @ np.conj(psi))


def draw_outcomes(probs, n_trials, seed) -> np.ndarray:
    """Sample n_trials outcome indices from the post-device position density.

    probs is the Born vector born_probabilities(dev, psi), which the caller
    already holds. Each outcome is the cell that the trajectory module's
    position sampler draws over the device's cells, with weights
    |psi'|^2 = probs: detection is a position reading.
    """
    cdf = np.cumsum(probs)
    u = stream_rng(seed, "measurement").random(int(n_trials)) * cdf[-1]
    return draw_cells(cdf, u)


def collapse_update(dev: DiscreteDevice, observed_cell: int):
    """Condition on a detection: returns (index i, posterior state a_i).

    With an ideal position detector the posterior over outcomes is a point
    mass at the index whose target cell was hit."""
    hits = np.flatnonzero(dev.target_cells == int(observed_cell))
    if len(hits) == 0:
        raise CellError(f"cell {observed_cell} is not a target of this device")
    i = int(hits[0])
    return i, dev.basis[i].copy()


@dataclass(frozen=True)
class ContinuumDevice:
    """Smooth observable a = g(x) with supplied derivative, strictly monotone."""

    g: Callable
    g_prime: Callable


def continuum_pdf(cdev: ContinuumDevice, psi: WaveFunction):
    """Push the position density through a = g(x).

    Returns (a_grid, rho_a) with rho_a = rho(x)/|g'(x)| on the image grid
    a_j = g(x_j). Raises MonotonicityError if g' changes sign or falls
    below 1e-12 in magnitude anywhere on the grid.
    """
    x = psi.grid.cells
    gp = np.asarray(cdev.g_prime(x), dtype=float)
    if np.min(np.abs(gp)) < 1e-12 or (np.min(gp) < 0 < np.max(gp)):
        raise MonotonicityError("g' must be bounded away from zero with one sign")
    rho = psi.density()
    rho = rho / (rho.sum() * psi.grid.dx)
    a = np.asarray(cdev.g(x), dtype=float)
    return a, rho / np.abs(gp)
