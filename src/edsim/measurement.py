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
from typing import Callable, Optional

import numpy as np

from .dynamics import load_linalg
from .errors import BasisError, CellError, MonotonicityError
from .seeding import stream_rng
from .state import WaveFunction
from .trajectories import draw_cells

ORTHO_TOL = 1e-10
# the devices a name stands for, each a closed form (preset_device)
DEVICE_PRESETS = ("identity", "fourier")


@dataclass(frozen=True)
class DiscreteDevice:
    dim: int
    dense: Optional[np.ndarray]  # the stored basis; None for a preset
    eigenvalues: np.ndarray
    target_cells: np.ndarray
    preset: Optional[str] = None  # one of DEVICE_PRESETS

    @property
    def basis(self) -> np.ndarray:
        """Rows are the eigenvectors a_i; a preset's are built on each read."""
        return self.dense if self.dense is not None else self.rows(np.arange(self.dim))

    def rows(self, i) -> np.ndarray:
        """A copy of basis[i], for an index or index array; a preset forms only
        those rows: cell indicators, or phase_table at (ik mod n)."""
        if self.dense is not None:
            return self.dense[i].copy()
        i, k = np.asarray(i)[..., None], np.arange(self.dim)
        if self.preset == "identity":
            return (i == k).astype(complex)
        return phase_table(self.dim)[i * k % self.dim]


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
    # zherk forms one triangle of a Gram matrix, at half the work of a general
    # product, and leaves the other zero, so the deviation reads the same
    # maximum. On B^T, a Fortran-ordered view of B, trans 2 gives
    # conj(B B^H) and trans 0 conj(B^H B), with no copy of B; conjugation
    # leaves every |entry| as it is.
    zherk = load_linalg("_fblas").zherk
    deviation = _identity_deviation(zherk(1.0, basis.T, trans=2))
    if deviation > ORTHO_TOL:
        raise BasisError(f"basis not orthonormal: max Gram deviation {deviation:.2e}")
    # sum_i |a_i><a_i| = B^H B
    if _identity_deviation(zherk(1.0, basis.T, trans=0)) > ORTHO_TOL:
        raise BasisError("basis not complete")
    cells = np.asarray(target_cells, dtype=int)
    if cells.shape != (dim,):
        raise CellError("need one target cell per basis vector")
    if len(set(cells.tolist())) != dim:
        raise CellError("target cells must be pairwise distinct")
    if cells.min() < 0 or cells.max() >= dim:
        raise CellError(f"target cells must lie in [0, {dim})")
    eigenvalues = np.asarray(np.arange(dim) if eigenvalues is None else eigenvalues, dtype=complex)
    if eigenvalues.shape != (dim,):
        raise ValueError("need one eigenvalue per basis vector")
    if not np.all(np.isfinite(eigenvalues)):
        raise BasisError("eigenvalues must be finite")
    # the device unitary U = sum_i |x_i><a_i| in slot order is conj(B). Its
    # unitarity and U a_i = e_i are the checks above: U^H U = conj(B^H B) and
    # U B^T = conj(B B^H), and _identity_deviation reads only abs(m) and
    # abs(diag(m) - 1), which conjugation leaves bit for bit.
    return DiscreteDevice(dim, basis, eigenvalues, cells)


def _identity_deviation(m) -> float:
    """max |m - I| over the entries of a square matrix: the same number as
    np.max(np.abs(m - np.eye(n))), with |m| as the only n x n temporary."""
    dev = np.abs(m)
    np.fill_diagonal(dev, np.abs(np.diagonal(m) - 1.0))
    return np.max(dev)


def preset_device(dim, preset) -> DiscreteDevice:
    """The DEVICE_PRESETS device named preset: a_i targets cell i, with eigenvalue i.
    Its basis is a closed form, so build_device's O(n^3) checks are left to the tests."""
    if preset not in DEVICE_PRESETS:
        raise ValueError(f"unknown device preset {preset!r}")
    if dim < 1:
        raise ValueError("device dimension must be at least 1")
    cells = np.arange(dim)
    return DiscreteDevice(dim, None, cells.astype(complex), cells, preset)


def identity_device(dim: int) -> DiscreteDevice:
    """Position measured directly: the unitary is the identity."""
    return preset_device(dim, "identity")


def fourier_device(dim: int) -> DiscreteDevice:
    """Momentum-like device: the unitary is the DFT, applied with np.fft."""
    return preset_device(dim, "fourier")


def phase_table(n) -> np.ndarray:
    """The n distinct entries exp(2 pi i m/n) / sqrt(n) of the Fourier basis,
    entry (j, k) at m = jk mod n, so no phase loses digits to a large jk."""
    return np.exp(2j * np.pi * np.arange(n) / n) / np.sqrt(n)


def observable_matrix(dev: DiscreteDevice) -> np.ndarray:
    """A = sum_i lambda_i |a_i><a_i|."""
    basis = dev.basis
    return (basis.T * dev.eigenvalues) @ basis.conj()


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


def apply_device(dev: DiscreteDevice, psi) -> np.ndarray:
    """psi' = U psi with U = conj(B); component i of psi' lives at target
    cell x_i. A preset's U is the orthonormal DFT or the identity."""
    if dev.preset == "fourier":
        return np.fft.fft(psi, norm="ortho")
    if dev.preset == "identity":
        return np.array(psi, dtype=complex)
    return np.conj(dev.dense @ np.conj(psi))


def born_probabilities(dev: DiscreteDevice, psi) -> np.ndarray:
    """p_i = |<a_i|psi>|^2 = |(U psi)_i|^2; sums to 1 by completeness."""
    return np.abs(apply_device(dev, psi)) ** 2


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
    return i, dev.rows(i)


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
