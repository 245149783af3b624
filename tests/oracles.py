"""Reference computations the tests measure the package against.

The Hamiltonian references work on dense or eigen-decomposed forms of its
bands, where scipy's general solvers are fine; the experiment log
reference encodes one plain dict per trial, the join of its two files
reads them back into that form, and the likelihood reference
one float at a time. dense_copy stores a preset's closed form entry by
entry, as a file device or file likelihood does. None of this is on the
package's run path.
"""

import json

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal

from edsim import LikelihoodModel, WaveFunction, build_device, hamiltonian


def dense_hamiltonian(grid, p):
    """The n x n matrix of hamiltonian(grid, p)'s three bands."""
    n = grid.n
    diag, off, corner = hamiltonian(grid, p)
    H = np.diag(diag) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
    H[0, -1] = H[-1, 0] = corner
    return H


def discrete_ground_state(grid, p):
    """Ground state of the discretized Hamiltonian itself.

    Unlike the continuum eigenfunctions, this state is stationary for the
    grid dynamics down to roundoff, which is what discrete stationarity
    tests need. Returns (energy, WaveFunction).
    """
    if grid.boundary == "hardwall":
        diag, off, _ = hamiltonian(grid, p)
        energies, vecs = eigh_tridiagonal(diag, np.full(grid.n - 1, off),
                                          select="i", select_range=(0, 0))
    else:
        H = dense_hamiltonian(grid, p)
        energies, vecs = eigh(H, subset_by_index=(0, 0))
    e0, u = float(energies[0]), vecs[:, 0]
    if u.sum() < 0:
        u = -u
    psi = WaveFunction(grid, u.astype(complex) / np.sqrt(grid.dx))
    return e0, psi.normalized()


def experiment_log_text(log) -> str:
    """The log as json.dumps of one dict per trial, keys sorted, each with
    its whole posterior: the join of experiment.ndjson and posteriors.ndjson."""
    posterior = log.rows[log.row_of]
    return "".join(
        json.dumps({"trial": k, "true_i": int(log.true_i[k]),
                    "observed_r": int(log.observed_r[k]),
                    "posterior": [float(v) for v in posterior[k]],
                    "map_i": int(log.map_i[k])}, sort_keys=True) + "\n"
        for k in range(len(log.true_i)))


def join_experiment_log(trials: str, posteriors: str) -> str:
    """The texts of experiment.ndjson and posteriors.ndjson joined: each
    trial line with its "row" replaced by that line of posteriors.ndjson as
    "posterior", re-encoded by json.dumps with its keys sorted."""
    rows = [json.loads(line) for line in posteriors.splitlines()]
    out = []
    for line in trials.splitlines():
        rec = json.loads(line)
        rec["posterior"] = rows[rec.pop("row")]
        out.append(json.dumps(rec, sort_keys=True) + "\n")
    return "".join(out)


def dense_copy(model):
    """A preset device or likelihood stored dense: the same basis, target
    cells and eigenvalues, or the same matrix, which the writers spell
    entry by entry and the readers re-validate."""
    if isinstance(model, LikelihoodModel):
        return LikelihoodModel(model.matrix)
    return build_device(model.basis, model.target_cells, model.eigenvalues)


def ref_likelihood(like) -> str:
    """likelihood.csv: a preset as "n,on,off" and the line of its n and the
    "%.17g" texts of its two values; a matrix as the plain join of each
    column's "%.17g" texts."""
    if like.dense is None:
        return "n,on,off\n%d,%s,%s\n" % (like.n, format(like.on, ".17g"), format(like.off, ".17g"))
    m = like.matrix
    lines = [",".join("alpha_%d" % r for r in range(m.shape[0]))]
    for i in range(m.shape[1]):
        lines.append(",".join(format(float(v), ".17g") for v in m[:, i]))
    return "\n".join(lines) + "\n"
