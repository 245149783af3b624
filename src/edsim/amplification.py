"""Pointer-variable amplification: inferring the detection cell from a
macroscopic reading.

The amplifier is characterized entirely by a likelihood matrix
P(pointer = r | cell = i); inference back to the cell is a standard Bayes
update. Nothing in this module reads wavefunction amplitudes: the only
quantum input is the cell index the measurement stage produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError, ZeroEvidenceError
from .measurement import DiscreteDevice, born_probabilities, draw_outcomes
from .seeding import stream_rng
from .trajectories import draw_cells

_COLUMN_TOL = 1e-12


@dataclass(frozen=True)
class LikelihoodModel:
    """matrix[r, i] = P(pointer r | cell i); columns sum to 1. A file's matrix
    is kept in dense; a preset (dense None) is n x n, on on its diagonal, off elsewhere."""

    dense: np.ndarray | None
    n: int = 0
    on: float = 1.0
    off: float = 0.0

    def __post_init__(self):
        if self.dense is None:
            entries = np.array([self.on, self.off], dtype=float)
            colsums = entries[0] + (self.n - 1) * entries[1]
        else:
            entries = np.asarray(self.dense, dtype=float)
            if entries.ndim != 2:
                raise RangeError("likelihood must be a matrix")
            colsums = entries.sum(axis=0)
            object.__setattr__(self, "dense", entries)
        # written so that nan fails too: every comparison with nan is false
        if not np.all((entries >= 0) & (entries <= 1)):
            raise RangeError("likelihood entries must lie in [0, 1]")
        if np.max(np.abs(colsums - 1.0)) > _COLUMN_TOL:
            raise RangeError("likelihood columns must each sum to 1")

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix; a preset's is built on each read."""
        return self.dense if self.dense is not None else self.rows(np.arange(self.n))

    def rows(self, readings) -> np.ndarray:
        """matrix[readings, :]; a preset forms only these rows."""
        if self.dense is not None:
            return self.dense[readings, :]
        k = np.arange(self.n)  # k[readings] wraps and bounds them as dense would
        return np.where(k == k[readings][..., None], self.on, self.off)

    def column(self, i) -> np.ndarray:
        """matrix[:, i]; a preset is symmetric, so its column i is its row i."""
        return self.dense[:, i] if self.dense is not None else self.rows(i)

    @property
    def n_pointers(self) -> int:
        return self.n if self.dense is None else self.dense.shape[0]

    @property
    def n_cells(self) -> int:
        return self.n if self.dense is None else self.dense.shape[1]


def ideal_likelihood(n: int) -> LikelihoodModel:
    """Perfect amplifier: the pointer reading determines the cell, P = identity."""
    if n < 1:
        raise RangeError("n must be >= 1")
    return LikelihoodModel(None, n, 1.0, 0.0)


def noisy_likelihood(n: int, epsilon: float) -> LikelihoodModel:
    """Symmetric confusion: correct reading with probability 1 - epsilon,
    error mass spread uniformly over the other pointer values."""
    if not 0.0 <= epsilon < 1.0:
        raise RangeError("epsilon must lie in [0, 1)")
    if n < 2:
        raise RangeError("need n >= 2 pointer values")
    return LikelihoodModel(None, n, 1.0 - epsilon, epsilon / (n - 1))


def _check_prior(prior) -> np.ndarray:
    prior = np.asarray(prior, dtype=float)
    if not np.all(np.isfinite(prior) & (prior >= 0.0)):
        raise ValueError("prior entries must be finite and >= 0")
    if abs(prior.sum() - 1.0) > 1e-9:
        raise ValueError("prior must be normalized")
    return prior


def _posterior_rows(prior, like: LikelihoodModel, readings) -> np.ndarray:
    """Row k is the posterior given pointer reading readings[k]."""
    weights = prior[None, :] * like.rows(readings)
    evidence = weights.sum(axis=1)
    if np.any(evidence <= 0.0):
        r = int(readings[np.argmax(evidence <= 0.0)])
        raise ZeroEvidenceError(f"pointer value {r} has zero probability under the model")
    return weights / evidence[:, None]


def bayes_update(prior, like: LikelihoodModel, observed_r: int) -> np.ndarray:
    """The posterior vector: posterior[i] = prior[i] L[r, i] / sum_i prior[i] L[r, i]."""
    return _posterior_rows(_check_prior(prior), like, [int(observed_r)])[0]


@dataclass
class ExperimentLog:
    """Per-trial record of an amplification run.

    With one prior for every trial the posterior depends only on the
    pointer reading, so each distinct reading's posterior is stored once:
    trial k's posterior is rows[row_of[k]].
    """

    true_i: np.ndarray      # per-trial detection cells
    observed_r: np.ndarray  # per-trial pointer readings
    rows: np.ndarray        # one posterior per distinct reading, ascending
    row_of: np.ndarray      # per-trial index into rows
    map_i: np.ndarray       # per-trial MAP estimates

    @property
    def error_rate(self) -> float:
        return float(np.mean(self.map_i != self.true_i))


def draw_by_column(like: LikelihoodModel, cols, u) -> np.ndarray:
    """Categorical draws from the columns of a likelihood.

    Entry k is draw_cells(np.cumsum(like.column(cols[k])), u[k]): the number
    of entries of that cumulative column below u[k], capped at the last row.
    Each distinct column is formed, summed to the bits of np.cumsum(matrix,
    axis=0), and searched once: no rows x cells or rows x trials table.
    """
    out = np.empty(len(cols), dtype=np.intp)
    order = np.argsort(cols, kind="stable")
    cells, starts = np.unique(cols[order], return_index=True)
    for c, idx in zip(cells.tolist(), np.split(order, starts[1:])):
        out[idx] = draw_cells(np.cumsum(like.column(c)), u[idx])
    return out


def end_to_end(
    psi, dev: DiscreteDevice, like: LikelihoodModel, n_trials, seed, prior=None
) -> ExperimentLog:
    """Full chain per trial: Born-sample the detection cell, push it through
    the amplifier, infer it back.

    The default prior is the Born vector of the prepared state: absent other
    information, the experimenter's expectation IS the predicted outcome
    distribution. Pass an explicit prior to override. The Born vector is
    computed once, for the draw and the default prior; the Bayes update runs
    once per distinct reading, not once per trial. Only a prior passed in
    is checked: the Born vector sums to 1 only within the basis tolerance,
    and each posterior row is normalized by its own evidence.
    """
    if like.n_cells != dev.dim:
        raise ValueError("likelihood is not dimensioned to the device")
    born = born_probabilities(dev, psi)
    prior = born if prior is None else _check_prior(prior)

    true_i = draw_outcomes(born, n_trials, seed)
    rng = stream_rng(seed, "pointer")
    u = rng.random(len(true_i))
    observed_r = draw_by_column(like, true_i, u)

    readings, row_of = np.unique(observed_r, return_inverse=True)
    rows = _posterior_rows(prior, like, readings)
    map_i = np.argmax(rows, axis=1)[row_of]
    return ExperimentLog(true_i, observed_r, rows, row_of, map_i)
