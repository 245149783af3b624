"""File formats and atomic writes.

All floats are serialized with 17 significant digits, enough to round-trip
binary64 exactly, and every writer goes through a temp-file rename so
readers never see partial output. No writer embeds timestamps or absolute
paths: identical inputs give byte-identical files.
"""

import glob
import itertools
import json
import os
import tempfile

import numpy as np

from .errors import ConfigError
from .measurement import DiscreteDevice, build_device


def _f(v) -> str:
    return format(float(v), ".17g")


def _f_table(a) -> np.ndarray:
    """_f of every entry of a float array, as an object array of the same
    shape. Each distinct value is formatted once; values are keyed on their
    bit pattern, so -0.0 keeps its sign."""
    a = np.ascontiguousarray(a, dtype=float)
    bits, inv = _distinct(a.ravel().view(np.uint64))
    text = np.array([_f(v) for v in bits.view(float)], dtype=object)
    return text[inv.reshape(a.shape)]


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def atomic_write(path, text):
    """Write text, a str or an iterable of str chunks, to path via a temp
    file, path + ".<random>.tmp", and a rename. The file gets the mode a
    plain open() would give it: 0o666 less the umask."""
    if isinstance(text, str):
        text = (text,)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def remove_temps(path):
    """Delete the temp files of atomic_write(path, ...) calls whose process
    was killed before it could delete them itself."""
    for tmp in glob.glob(glob.escape(path) + ".*.tmp"):
        os.unlink(tmp)


def write_snapshots(path, grid, ts, rhos, phis):
    """NDJSON, one record per snapshot: t, x, rho, phi, from the arrays of
    EvolutionTrace.field_arrays() on grid. The cell centres are the same in
    every record and are formatted once. Each array fills a
    "%.17g, %.17g, ..." template with a single % ("%.17g" of a float is
    exactly _f)."""
    x = _f_join(grid.cells)
    atomic_write(path, (
        '{"t": %s, "x": [%s], "rho": [%s], "phi": [%s]}\n'
        % (_f(t), x, _f_join(rho), _f_join(phi))
        for t, rho, phi in zip(ts, rhos, phis)))


def _f_join(a) -> str:
    """", ".join(_f(v) for v in a), by one % on a template."""
    values = np.asarray(a, dtype=float).tolist()
    return ", ".join(["%.17g"] * len(values)) % tuple(values)


def read_snapshots(path):
    """Inverse of write_snapshots: list of (t, x, rho, phi) arrays. Every
    number parses as a float, so "-0" (-0.0 in "%.17g") keeps its sign."""
    out = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line, parse_int=float)
            out.append(
                (
                    float(rec["t"]),
                    np.array(rec["x"], dtype=float),
                    np.array(rec["rho"], dtype=float),
                    np.array(rec["phi"], dtype=float),
                )
            )
    return out


def write_diagnostics(path, rows):
    lines = ["t,norm,energy,renorm_correction"]
    for r in rows:
        lines.append(",".join((_f(r.t), _f(r.norm), _f(r.energy), _f(r.renorm_correction))))
    atomic_write(path, "\n".join(lines) + "\n")


# particles per formatted block of write_ensemble_csv: the writer holds
# about 190 B a particle of one block, not of a whole snapshot
ENSEMBLE_BLOCK = 8192


def write_ensemble_csv(path, snapshots):
    """CSV particle_id,t,x: one row per particle per snapshot, from an
    iterable of (t, positions) pairs, read one pair at a time as its rows
    are written. A snapshot is written in blocks of ENSEMBLE_BLOCK
    particles. Each block is one line template, the "%d," id prefixes
    joined by "<t>,%.17g\n", filled by a single % operation; "%.17g" of a
    float is exactly _f. The first block's id prefixes are kept across
    snapshots."""

    def chunks():
        yield "particle_id,t,x\n"
        first_ids = []
        for t, xs in snapshots:
            xs = np.asarray(xs, dtype=float)
            tail = _f(t) + ",%.17g\n"
            for start in range(0, len(xs), ENSEMBLE_BLOCK):
                block = xs[start:start + ENSEMBLE_BLOCK].tolist()
                if start:
                    ids = ["%d," % i for i in range(start, start + len(block))]
                elif len(first_ids) >= len(block):
                    ids = first_ids[:len(block)]
                else:
                    ids = first_ids = ["%d," % i for i in range(len(block))]
                yield (tail.join(ids) + tail) % tuple(block)

    atomic_write(path, chunks())


def write_test_record(path, record: dict):
    atomic_write(path, json.dumps(record, sort_keys=True) + "\n")


def write_outcomes_csv(path, trials, dev: DiscreteDevice):
    """CSV trial,index,eigenvalue_re,eigenvalue_im,cell: one row per trial.
    Each outcome index's "index,eigenvalue_re,eigenvalue_im,cell" text is
    formatted once, and a trial's row is its number and that text."""
    text = ["%d,%s,%s,%d" % (i, _f(lam.real), _f(lam.imag), cell)
            for i, (lam, cell) in enumerate(zip(dev.eigenvalues.tolist(),
                                                dev.target_cells.tolist()))]
    lines = ["trial,index,eigenvalue_re,eigenvalue_im,cell"]
    lines.extend("%d,%s" % (k, text[i]) for k, i in enumerate(np.asarray(trials).tolist()))
    atomic_write(path, "\n".join(lines) + "\n")


def write_device(path, dev: DiscreteDevice):
    """JSON: dim, basis rows and eigenvalues as [re, im] pairs, target cells.

    The bytes are those of json.dumps({"dim": ..., "basis": ...,
    "target_cells": ..., "eigenvalues": ...}) + "\n", with the basis
    streamed one row at a time from a table of its distinct pairs."""
    basis = _pair_text(dev.basis)
    eigenvalues = ", ".join(_pair_text(dev.eigenvalues).tolist())
    cells = json.dumps([int(c) for c in dev.target_cells])

    def chunks():
        yield '{"dim": %s, "basis": [' % json.dumps(dev.dim)
        for i, row in enumerate(basis):
            yield ("[%s]" if i == 0 else ", [%s]") % ", ".join(row.tolist())
        yield '], "target_cells": %s, "eigenvalues": [%s]}\n' % (cells, eigenvalues)

    atomic_write(path, chunks())


def _pair_text(z) -> np.ndarray:
    """The json.dumps text "[re, im]" of every entry of a complex array, as
    an object array of the same shape. Each distinct float bit pattern is
    formatted once, by _json_floats, and each distinct (re, im) pair is
    joined once, keyed on the indices of its two floats."""
    floats, idx = _json_floats(np.ascontiguousarray(z, dtype=complex).view(float))
    n = len(floats)
    pairs, pair_of = _distinct(idx[0::2] * n + idx[1::2])
    del idx  # 2 n^2 indices: free them before the strings are built
    re, im = np.divmod(pairs, n)
    text = np.array(["[%s, %s]" % (floats[a], floats[b])
                     for a, b in zip(re.tolist(), im.tolist())], dtype=object)
    return text[pair_of.reshape(np.shape(z))]


def _json_floats(a):
    """(text, inverse) for a float array: text[k] is the json.dumps spelling
    of the k-th distinct float64 bit pattern of a (repr digits, -0.0, NaN,
    Infinity), and a.ravel()[i] is spelled text[inverse[i]]. The distinct
    floats go through one json.dumps call, so each is formatted once."""
    bits, inverse = _distinct(np.ascontiguousarray(a, dtype=float).view(np.uint64).ravel())
    return json.dumps(bits.view(float).tolist())[1:-1].split(", "), inverse


def _distinct(a):
    """np.unique(a, return_inverse=True) for a flat array, with at most three
    full-size temporaries alive at once where np.unique has six: it sorts
    through a view of a, not a flattened copy."""
    order = np.argsort(a)
    ordered = a[order]
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    values = ordered[first]
    del ordered
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(first)
    inverse -= 1
    return values, inverse


def read_device(path) -> DiscreteDevice:
    """Load and re-validate a device. A file that does not decode, parse or
    fit the write_device layout raises ConfigError naming it; a basis or
    cells that fail build_device's checks raise BasisError/CellError."""
    try:
        with open(path) as fh:
            rec = json.load(fh)
        basis = np.array(
            [[complex(re, im) for re, im in row] for row in rec["basis"]]
        )
        # np.array(..., dtype=int) would truncate 7.99 and read true as 1
        bad = [c for c in rec["target_cells"] if type(c) is not int]
        if bad:
            raise ValueError(f"target cell {json.dumps(bad[0])} is not an integer")
        cells = np.array(rec["target_cells"], dtype=int)
        eig = np.array([complex(re, im) for re, im in rec["eigenvalues"]])
        return build_device(basis, cells, eig)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"malformed device file {path}: {e}") from None


def write_likelihood_csv(path, like):
    """Matrix with a header row of pointer labels; data row i holds
    P(r | cell i) across the columns."""
    m = like.matrix
    header = ",".join("alpha_%d" % r for r in range(m.shape[0])) + "\n"
    rows = (",".join(row.tolist()) + "\n" for row in _f_table(m.T))
    atomic_write(path, itertools.chain((header,), rows))


def read_likelihood_csv(path):
    from .amplification import LikelihoodModel

    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines:
            raise ConfigError(f"empty likelihood file {path}")
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float)
    except ValueError as e:
        raise ConfigError(f"malformed likelihood file {path}: {e}") from None
    return LikelihoodModel(rows.T)


def write_experiment_log(path, log):
    """NDJSON, one record per trial with its keys sorted. The bytes are
    those of json.dumps of each trial's record: each distinct posterior
    float is formatted once, by _json_floats, each distinct posterior row is
    joined once from that table and spliced into every trial that shares
    it, and the lines are streamed to disk."""
    floats, idx = _json_floats(log.rows)
    floats = np.array(floats, dtype=object)
    posts = ["[%s]" % ", ".join(floats[row].tolist())
             for row in idx.reshape(np.shape(log.rows))]
    del floats, idx
    trials = zip(log.map_i.tolist(), log.observed_r.tolist(),
                 log.row_of.tolist(), log.true_i.tolist())
    atomic_write(path, (
        '{"map_i": %d, "observed_r": %d, "posterior": %s, "trial": %d, "true_i": %d}\n'
        % (map_i, r, posts[j], k, true_i)
        for k, (map_i, r, j, true_i) in enumerate(trials)))


def write_compare_csv(path, times, l1s):
    lines = ["t,l1"]
    for t, v in zip(times, l1s):
        lines.append("%s,%s" % (_f(t), _f(v)))
    atomic_write(path, "\n".join(lines) + "\n")
