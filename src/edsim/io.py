"""File formats and atomic writes.

All floats are serialized with 17 significant digits, enough to round-trip
binary64 exactly, and every writer goes through a temp-file rename so
readers never see partial output. No writer embeds timestamps or absolute
paths: identical inputs give byte-identical files.

Files are written in binary mode: writers yield bytes chunks, and
atomic_write encodes any str chunk as UTF-8. The "%.17g" writers (snapshots,
diagnostics, ensemble, outcomes, likelihood and compare files) spell whole
arrays of floats at once with floattext, whose bytes are those of
b"%.17g" % v for every float64, computed with numpy integer arithmetic for
1e-11 < |v| < 1e17 and by Python's own "%.17g" for zeros, infinities, NaN
and the magnitudes outside that range. They build a block of up to
ENSEMBLE_BLOCK lines at a time.
"""

import glob
import itertools
import json
import os
import tempfile

import numpy as np

from . import config, floattext
from .errors import ConfigError
from .measurement import DiscreteDevice, build_device, preset_device


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def atomic_write(path, text):
    """Write text, a str, bytes or an iterable of str or bytes chunks, to
    path via a temp file, path + ".<random>.tmp", and a rename. The file is
    written in binary mode and each str chunk is encoded as UTF-8. It gets
    the mode a plain open() would give it: 0o666 less the umask."""
    if isinstance(text, (str, bytes)):
        text = (text,)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            for chunk in text:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
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


# particles per spelled block of write_ensemble_csv, and trials per block of
# write_outcomes_csv: the ensemble writer holds about 220 traced bytes a
# particle of one block, not of a whole snapshot. The writers of float
# matrices spell about a quarter as many values a block (_lines_per_block).
ENSEMBLE_BLOCK = 8192


def _lines_per_block(values_per_line) -> int:
    """Lines of values_per_line floats per block: about ENSEMBLE_BLOCK / 4
    values, and at least one line."""
    return max(1, ENSEMBLE_BLOCK // (4 * values_per_line))


def _csv_rows(m):
    """The rows of the 2-d float array m as CSV lines of "%.17g" values, in
    blocks of _lines_per_block lines, as a generator."""
    per = _lines_per_block(m.shape[1])
    for start in range(0, len(m), per):
        yield floattext.text(floattext.joined(m[start:start + per], b","), b"\n")


def write_snapshots(path, grid, ts, rhos, phis):
    """NDJSON, one record per snapshot: t, x, rho, phi, from the arrays of
    EvolutionTrace.field_arrays() on grid. The cell centres are the same in
    every record and are spelled once; the records are spelled in blocks
    of _lines_per_block lines."""
    ts, rhos, phis = (np.asarray(a, dtype=float) for a in (ts, rhos, phis))
    x_field = b', "x": [%s], "rho": [' % floattext.text(floattext.joined(grid.cells[None], b", "))
    per = _lines_per_block(2 * len(grid.cells))
    atomic_write(path, (
        floattext.text(b'{"t": ', ts[start:start + per], x_field,
                       floattext.joined(rhos[start:start + per], b", "), b'], "phi": [',
                       floattext.joined(phis[start:start + per], b", "), b"]}\n")
        for start in range(0, len(ts), per)))


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
    m = np.array([(r.t, r.norm, r.energy, r.renorm_correction) for r in rows],
                 dtype=float).reshape(-1, 4)
    atomic_write(path, itertools.chain((b"t,norm,energy,renorm_correction\n",), _csv_rows(m)))


def write_ensemble_csv(path, snapshots):
    """CSV particle_id,t,x: one row per particle per snapshot, from an
    iterable of (t, positions) pairs, read one pair at a time as its rows
    are written. A snapshot is written in blocks of ENSEMBLE_BLOCK
    particles, each one line matrix of id, the snapshot's t and x, made
    bytes by one mask. The id digits of the first block are kept across
    snapshots."""

    def chunks():
        yield b"particle_id,t,x\n"
        first = floattext.cells(range(ENSEMBLE_BLOCK))
        for t, xs in snapshots:
            xs = np.asarray(xs, dtype=float)
            t_text = b",%.17g," % t
            for start in range(0, len(xs), ENSEMBLE_BLOCK):
                block = xs[start:start + ENSEMBLE_BLOCK]
                ids = range(start, start + len(block)) if start else first[:len(block)]
                yield floattext.text(ids, t_text, block, b"\n")

    atomic_write(path, chunks())


def write_test_record(path, record: dict):
    atomic_write(path, json.dumps(record, sort_keys=True) + "\n")


def write_outcomes_csv(path, trials, dev: DiscreteDevice):
    """CSV trial,index,eigenvalue_re,eigenvalue_im,cell: one row per trial.
    Each outcome index's "index,eigenvalue_re,eigenvalue_im,cell" line is
    spelled once, and a trial's row is its number and that line."""
    lam = dev.eigenvalues
    lines = floattext.cells(np.arange(dev.dim), b",", lam.real, b",", lam.imag, b",",
                            dev.target_cells, b"\n")
    trials = np.asarray(trials)

    def chunks():
        yield b"trial,index,eigenvalue_re,eigenvalue_im,cell\n"
        for start in range(0, len(trials), ENSEMBLE_BLOCK):
            index = trials[start:start + ENSEMBLE_BLOCK]
            yield floattext.text(range(start, start + len(index)), b",", lines[index])

    atomic_write(path, chunks())


def write_device(path, dev: DiscreteDevice):
    """The bytes of json.dumps({"dim": ..., "preset": ...}) + "\n" for a preset,
    else of json.dumps({"dim": ..., "basis": ..., "target_cells": ...,
    "eigenvalues": ...}) + "\n" with [re, im] pairs, the basis streamed a
    row at a time from a table of its distinct pairs."""
    n = dev.dim
    if dev.preset is not None:
        atomic_write(path, json.dumps({"dim": n, "preset": dev.preset}) + "\n")
        return
    rows = (", ".join(row.tolist()) for row in _pair_text(dev.dense))
    eigenvalues = ", ".join(_pair_text(dev.eigenvalues).tolist())
    cells = json.dumps([int(c) for c in dev.target_cells])

    def chunks():
        yield '{"dim": %s, "basis": [' % json.dumps(n)
        for i, row in enumerate(rows):
            yield ("[%s]" if i == 0 else ", [%s]") % row
        yield '], "target_cells": %s, "eigenvalues": [%s]}\n' % (cells, eigenvalues)

    atomic_write(path, chunks())


def _pair_text(z) -> np.ndarray:
    """The json.dumps text "[re, im]" of every entry of a complex array, as
    an object array of the same shape. Each distinct float bit pattern is
    formatted once, by _json_floats, and each distinct (re, im) pair is
    joined once, keyed on the indices of its two floats."""
    floats, idx = _json_floats(np.ascontiguousarray(z, dtype=complex).view(float))
    n = len(floats)
    pairs, pair_of = np.unique(idx[0::2] * n + idx[1::2], return_inverse=True)
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
    bits, inverse = np.unique(np.ascontiguousarray(a, dtype=float).view(np.uint64).ravel(),
                              return_inverse=True)
    return json.dumps(bits.view(float).tolist())[1:-1].split(", "), inverse


def _read_at_most(path, bound):
    """(data, size): the bytes of path and None, or its first 64 and its size
    when it holds more than bound. read(k) reserves k bytes, so it reads one
    byte past the size, or past bound where a special file's reads 0."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        data = fh.read(64 if size > bound else (size or bound) + 1)
    size = size if size > bound else f"over {bound}" if len(data) > bound else None
    return (data[:64] if size else data), size


def device_file_bound(n) -> int:
    """The most bytes write_device writes for an n-cell device: each of the
    n^2 + n [re, im] pairs at 2 floattext.FLOAT_CHARS + 6 with its brackets and
    separator, each target cell at the width of n, and the keys."""
    return (n * n + n) * (2 * floattext.FLOAT_CHARS + 6) + n * (len(str(n)) + 6) + 64


def read_device(path, dim) -> DiscreteDevice:
    """Load a device of dimension dim, the grid's n: a preset by its name, or a
    stored basis, re-validated. A file that does not decode, parse or fit a
    write_device layout, its dim included, raises ConfigError naming it, and
    a stated dim other than dim raises ConfigError before anything is built;
    a basis or cells that fail build_device's checks raise BasisError/CellError.
    A file longer than device_file_bound(dim) is refused unparsed, with the
    dimension its head states when that is another one."""
    bound = device_file_bound(dim)
    data, size = _read_at_most(path, bound)
    if size:
        stated = data.partition(b",")[0].removeprefix(b'{"dim": ')
        if stated.isdigit() and int(stated) != dim:
            raise ConfigError(f"device dimension {int(stated)} must equal grid n {dim}")
        raise ConfigError(f"device file {path} is {size} bytes, more than a valid "
                          f"{dim}-cell device file ({bound} bytes)")
    try:
        rec = json.loads(data.decode())
        stated = rec["dim"]
        # a bool is an int to Python, so its type is compared, not isinstance
        if type(stated) is not int:
            raise ValueError(f"dim {json.dumps(stated)} is not an integer")
        if "preset" not in rec and stated != len(rec["basis"]):
            raise ValueError(f"dim {stated} is not the number of basis rows, {len(rec['basis'])}")
        if stated != dim:
            raise ConfigError(f"device dimension {stated} must equal grid n {dim}")
        if "preset" in rec:
            return preset_device(dim, rec["preset"])
        # complex() reads true as 1; the entries' types are gathered in C
        pairs = itertools.chain(itertools.chain.from_iterable(rec["basis"]), rec["eigenvalues"])
        if bool in set(map(type, itertools.chain.from_iterable(pairs))):
            raise ValueError("a basis entry or eigenvalue is true or false, not a number")
        basis = np.array([[complex(re, im) for re, im in row] for row in rec["basis"]])
        # np.array(..., dtype=int) would truncate 7.99 and read true as 1
        bad = [c for c in rec["target_cells"] if type(c) is not int]
        if bad:
            raise ValueError(f"target cell {json.dumps(bad[0])} is not an integer")
        cells = np.array(rec["target_cells"], dtype=int)
        eig = np.array([complex(re, im) for re, im in rec["eigenvalues"]])
        return build_device(basis, cells, eig)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
        raise ConfigError(f"malformed device file {path}: {e}") from None


def write_likelihood_csv(path, like):
    """CSV. A preset is the header "n,on,off" and one line of its three
    values. A matrix has a header row of pointer labels, and data row i
    holds P(r | cell i) across the columns."""
    if like.dense is None:
        atomic_write(path, b"n,on,off\n%d,%.17g,%.17g\n" % (like.n, like.on, like.off))
        return
    header = ",".join("alpha_%d" % r for r in range(like.n_pointers)) + "\n"
    atomic_write(path, itertools.chain((header,), _csv_rows(like.dense.T)))


def likelihood_file_bound(n) -> int:
    """The most bytes write_likelihood_csv writes for a likelihood over n
    cells with at most config.MAX_POINTERS pointer readings: each header
    label at the width of the largest, and each of the n rows' values at
    floattext.FLOAT_CHARS with its separator."""
    p = config.MAX_POINTERS
    return p * (len("alpha_,") + len(str(p - 1))) + n * p * (floattext.FLOAT_CHARS + 1)


def read_likelihood_csv(path, n_cells):
    """Inverse of write_likelihood_csv, for a likelihood over n_cells cells:
    a preset's line holds a positive integer n and two floats; a matrix's
    header is the labels of its data rows' columns, with a row under it. A
    file that does not fit, or is over another number of cells, raises
    ConfigError before the model is built; so does one longer than
    likelihood_file_bound(n_cells), unparsed, or of over MAX_POINTERS readings."""
    from .amplification import LikelihoodModel

    bound = likelihood_file_bound(n_cells)
    data, size = _read_at_most(path, bound)
    if size:
        raise ConfigError(f"likelihood file {path} is {size} bytes, more than a valid "
                          f"likelihood file over {n_cells} cells ({bound} bytes)")
    try:
        # "\r\n" and "\r" end a line too, as in a text-mode open()
        lines = [ln.strip() for ln in data.decode().replace("\r", "\n").split("\n") if ln.strip()]
        if not lines:
            raise ConfigError(f"empty likelihood file {path}")
        if lines[0] == "n,on,off":
            if len(lines) != 2:
                raise ValueError("a preset likelihood has one line under its header")
            n, on, off = lines[1].split(",")
            if not n.isdigit() or int(n) < 1:
                raise ValueError(f"n {n} is not a positive integer")
            k = cells = int(n)
            args = None, k, float(on), float(off)
        else:
            rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float)
            if len(rows) == 0:
                raise ValueError("no data rows follow the header")
            cells, k = rows.shape
            args = (rows.T,)
            if lines[0] != ",".join("alpha_%d" % r for r in range(k)):
                raise ValueError(f"the header must be alpha_0..alpha_{k - 1} for {k} columns")
    except ValueError as e:
        raise ConfigError(f"malformed likelihood file {path}: {e}") from None
    if cells != n_cells:
        raise ConfigError(f"likelihood has {cells} cells but device has {n_cells}")
    if k > config.MAX_POINTERS:
        raise ConfigError(f"likelihood file {path} has {k} pointer readings, more than "
                          f"the limit of {config.MAX_POINTERS}")
    return LikelihoodModel(*args)


def write_experiment_log(path, log):
    """NDJSON, one json.dumps(..., sort_keys=True) record per trial: map_i, observed_r,
    row, trial and true_i, spelled ENSEMBLE_BLOCK trials at a time. Trial
    k's posterior is line row = log.row_of[k] of write_posteriors' file."""
    trials = range(len(log.row_of))
    blocks = (slice(start, start + ENSEMBLE_BLOCK) for start in trials[::ENSEMBLE_BLOCK])
    atomic_write(path, (
        floattext.text(b'{"map_i": ', log.map_i[b], b', "observed_r": ', log.observed_r[b],
                       b', "row": ', log.row_of[b], b', "trial": ', trials[b],
                       b', "true_i": ', log.true_i[b], b"}\n")
        for b in blocks))


def write_posteriors(path, log):
    """NDJSON: line j is the JSON array of log.rows[j], the posterior of the
    j-th distinct pointer reading in ascending order. Each distinct float is
    formatted once, by _json_floats, and each row is joined from that table."""
    floats, idx = _json_floats(log.rows)
    floats = np.array(floats, dtype=object)
    atomic_write(path, ("[%s]\n" % ", ".join(floats[row].tolist())
                        for row in idx.reshape(np.shape(log.rows))))


def write_compare_csv(path, times, l1s):
    m = np.column_stack([np.asarray(times, dtype=float), np.asarray(l1s, dtype=float)])
    atomic_write(path, itertools.chain((b"t,l1\n",), _csv_rows(m)))
