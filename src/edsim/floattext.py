"""Exact "%.17g" text of float64 arrays, and lines of it, with numpy.

put_floats writes the bytes of b"%.17g" % v for a whole array at once,
using integer arithmetic only. For 1e-11 < |v| < 1e17, |v| = m 2^e with a
53-bit m, and the 17 significant digits are floor(|v| 10^(16-k)) for the
decimal exponent k, rounded half to even on the remainder as CPython's
correctly rounded dtoa rounds (Steele and White, PLDI 1990; Gay, AT&T
report, 1990). The product m 5^(16-k) is formed exactly as 128 bits from
32-bit limbs. Zeros, infinities, NaN and magnitudes outside that range
are spelled by Python's own "%.17g".

Lines are built as the rows of a uint8 matrix, NUL where a line is shorter
than its row (cells), and text drops the NUL.
"""

import functools
import itertools

import numpy as np

# the longest "%.17g" or json.dumps spelling of a float64, as in
# "-1.2345678901234567e-308"; put_floats writes each float in this width
FLOAT_CHARS = 24

# the ASCII digits of 0000..9999, four bytes read as one uint32 each, and
# the trailing zeros of each (4 for 0000); built from 40 KB of uint8
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                                indexing="ij"), axis=-1).reshape(10000, 4)
_ZEROS4 = np.cumprod(_DIGITS4[:, ::-1] == ord("0"), axis=1, dtype=np.uint8).sum(
    axis=1, dtype=np.uint8)
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()

# 5^s for s = 0..27 (5^27 < 2^63) as 32-bit limbs
_POW5_LOW = np.array([5**s % 2**32 for s in range(28)], dtype=np.uint64)
_POW5_HIGH = np.array([5**s >> 32 for s in range(28)], dtype=np.uint64)
_E16, _E17 = np.uint64(10**16), np.uint64(10**17)
_LOW32, _ONE = np.uint64(2**32 - 1), np.uint64(1)


@functools.cache
def _layout(k):
    """(runs, need) of the "%.17g" text, sign left out, of a float whose 17
    digits d_0..d_16 have decimal exponent k. Each run is (columns, digits)
    for a slice of the digits, or (columns, characters) for literal text.
    Column c is kept when the float has more than need[c] significant
    digits, trailing zeros stripped: the integer digits always, the point
    only when a digit follows it. Fixed notation for -4 <= k < 17,
    exponential below, as "%.17g" does."""
    if k >= 0:
        text = "#" * (k + 1) + "." + "#" * (16 - k)
    elif k >= -4:
        text = "0." + "0" * (-k - 1) + "#" * 17
    else:
        text = "#." + "#" * 16 + "e-%02d" % -k
    runs, need, j = [], [], 0
    for is_digit, run in itertools.groupby(text, key=lambda c: c == "#"):
        run = "".join(run)
        columns = slice(len(need), len(need) + len(run))
        if is_digit:
            runs.append((columns, slice(j, j + len(run))))
            need.extend(i if i > k else 0 for i in range(j, j + len(run)))
            j += len(run)
        else:
            runs.append((columns, np.frombuffer(run.encode(), dtype=np.uint8)))
            need.extend(j if c == "." else 0 for c in run)
    need += [FLOAT_CHARS] * (FLOAT_CHARS - 1 - len(need))
    return runs, np.array(need, dtype=np.uint8)


def _scaled(m, e, k):
    """(q, up) for v = m 2^e and decimal exponents k: q = floor(v 10^(16-k))
    and up, whether q rounds up, half to even. m 5^(16-k) is formed exactly
    as 128 bits, hi 2^64 + lo, from 32-bit limbs, and no shift reaches 64
    bits."""
    s = 16 - k
    f0, f1 = np.take(_POW5_LOW, s), np.take(_POW5_HIGH, s)
    e = e + s  # v 10^s = m 5^s 2^e
    del s
    m0, m1 = m & _LOW32, m >> 32
    lo = m0 * f0
    mid = m0 * f1
    mid += m1 * f0
    mid += lo >> 32
    hi = m1 * f1
    hi += mid >> 32
    del m0, m1, f0, f1
    lo &= _LOW32
    lo |= mid << 32
    del mid
    # m 5^s = hi 2^64 + lo, -64 < e <= 5, and hi = 0 where e >= 0
    right = np.maximum(-e, 0).astype(np.uint64)
    hi <<= 63 - right
    hi <<= 1
    q = lo >> right
    q |= hi
    q <<= np.maximum(e, 0).astype(np.uint64)
    unit = _ONE << right
    lo &= unit - _ONE
    lo <<= 1  # twice the remainder, against 2^right
    up = (lo > unit) | ((lo == unit) & (q & _ONE).astype(bool))
    return q, up


def _round17(bits):
    """(d, k) for the float64 bit patterns bits, 1e-11 < |v| < 1e17: the
    17 significant digits of |v|, correctly rounded half to even, as an
    integer 10^16 <= d < 10^17, and the decimal exponent k of the first."""
    bits = bits & np.uint64(2**63 - 1)
    k = np.clip(np.floor(np.log10(bits.view(float))), -11, 16).astype(np.int64)
    e = (bits >> 52).view(np.int64) - 1075
    m = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    del bits
    q, up = _scaled(m, e, k)
    # log10 may round across a power of ten: fix k from floor(|v| 10^(16-k))
    i = np.flatnonzero((q < _E16) | (q >= _E17))
    while len(i):
        k[i] += np.where(q[i] < _E16, -1, 1)
        q[i], up[i] = _scaled(m[i], e[i], k[i])
        i = i[(q[i] < _E16) | (q[i] >= _E17)]
    d = q.view(np.int64)
    d += up
    carry = d == 10**17  # 99..9.5 rounds to 10^17: one digit, one more power
    d[carry] = 10**16
    k += carry
    return d, k


def _python_spelling(v) -> bytes:
    """b"%.17g" % v by Python itself, for the floats outside the integer
    path. A nan with its sign bit set spells "nan"."""
    return b"%.17g" % v


def _digits(d):
    """(digits, significant) for integers 10^16 <= d < 10^17: their 17
    ASCII digits as rows of a uint8 matrix, from one table lookup per four
    digits, and how many are left with trailing zeros stripped."""
    lead = d // 10**16
    groups = np.empty((len(d), 4), dtype=np.int64)
    groups[:, 0], groups[:, 2] = np.divmod(d - lead * 10**16, 10**8)
    groups[:, 0], groups[:, 1] = np.divmod(groups[:, 0], 10**4)
    groups[:, 2], groups[:, 3] = np.divmod(groups[:, 2], 10**4)
    digits = np.empty((len(d), 17), dtype=np.uint8)
    digits[:, 0] = lead + ord("0")
    digits[:, 1:] = np.take(_DIGITS4, groups).view(np.uint8)
    zeros = np.take(_ZEROS4, groups)
    tail = zeros[:, 3]  # the first digit is never 0
    for g, whole in ((2, 4), (1, 8), (0, 12)):
        tail = tail + (tail == whole) * zeros[:, g]
    return digits, 17 - tail


def put_floats(a, chars):
    """Write b"%.17g" % v of each entry v of the float array a into the
    rows of chars, a (len(a), FLOAT_CHARS) uint8 array, padded with NUL.
    The rows are sorted by decimal exponent, and each run of one exponent
    is laid out by slices of its digits."""
    a = np.ascontiguousarray(a, dtype=float)
    mag = np.abs(a)
    fast = (mag > 1e-11) & (mag < 1e17)  # false for 0, inf and nan
    slow = np.flatnonzero(~fast)
    if len(slow):
        spelled = b"".join(_python_spelling(v).ljust(FLOAT_CHARS, b"\0")
                           for v in a[slow].tolist())
        chars[slow] = np.frombuffer(spelled, dtype=np.uint8).reshape(-1, FLOAT_CHARS)
    rows = slice(None) if len(slow) == 0 else np.flatnonzero(fast)
    bits = a.view(np.uint64)[rows]
    chars[rows, 0] = (bits >> 63).astype(np.uint8) * ord("-")
    d, k = _round17(bits)
    layout = (k + 11).astype(np.int8)
    order = np.argsort(layout, kind="stable")
    digits, significant = _digits(np.take(d, order))
    significant = significant[:, None]
    del bits, d, k
    body = np.zeros((len(digits), FLOAT_CHARS - 1), dtype=np.uint8)
    counts = np.bincount(layout)
    ends = np.cumsum(counts).tolist()
    for j in np.flatnonzero(counts).tolist():
        start, stop = ends[j] - counts[j], ends[j]
        runs, need = _layout(j - 11)
        for columns, source in runs:
            body[start:stop, columns] = (digits[start:stop, source]
                                         if isinstance(source, slice) else source)
        body[start:stop] *= need < significant[start:stop]
    del digits
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    chars[rows, 1:] = np.take(body, inverse, axis=0)


_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def put_ints(a, chars):
    """Write "%d" of each entry of the non-negative integer array a into the
    rows of chars, whose width is a multiple of 4 wide enough for the
    largest, right-aligned and padded with NUL."""
    a = np.asarray(a, dtype=np.int64)
    groups = np.empty((len(a), chars.shape[1] // 4), dtype=np.int64)
    rest = a
    for g in reversed(range(groups.shape[1])):
        rest, groups[:, g] = np.divmod(rest, 10000)
    chars[:] = np.take(_DIGITS4, groups).view(np.uint8)
    count = 1 + np.searchsorted(_POW10, a, side="right")
    chars *= np.arange(chars.shape[1]) >= chars.shape[1] - count[:, None]


def _width(piece) -> int:
    if isinstance(piece, bytes):
        return len(piece)
    if piece.ndim == 2:
        return piece.shape[1]
    if piece.dtype.kind == "f":
        return FLOAT_CHARS
    return -(-len(str(piece.max(initial=0))) // 4) * 4


def cells(*pieces) -> np.ndarray:
    """Lines made of pieces side by side, as the rows of a uint8 matrix
    padded with NUL, a byte no piece holds. A piece is bytes, the same on
    every line; a float array, spelled "%.17g"; a range or non-negative
    integer array, spelled "%d"; or a 2-d uint8 array of such rows, from
    cells or joined."""
    pieces = [np.arange(p.start, p.stop) if isinstance(p, range)
              else p if isinstance(p, bytes) else np.asarray(p) for p in pieces]
    n = next(len(p) for p in pieces if not isinstance(p, bytes))
    widths = [_width(p) for p in pieces]
    chars = np.empty((n, sum(widths)), dtype=np.uint8)
    for p, stop, w in zip(pieces, itertools.accumulate(widths), widths):
        c = chars[:, stop - w:stop]
        if isinstance(p, bytes):
            c[:] = np.frombuffer(p, dtype=np.uint8)
        elif p.ndim == 2:
            c[:] = p
        elif p.dtype.kind in "iu":
            put_ints(p, c)
        else:
            put_floats(p, c)
    return chars


def joined(m, sep: bytes) -> np.ndarray:
    """The rows of the 2-d float array m as lines of their "%.17g" values
    joined by sep, as rows of a uint8 matrix to use as a piece of cells."""
    m = np.asarray(m, dtype=float)
    chars = cells(m.ravel(), sep).reshape(len(m), -1)
    return chars[:, :chars.shape[1] - len(sep)]


def text(*pieces) -> bytes:
    """The lines of cells(*pieces), NUL left out, one after another."""
    chars = cells(*pieces)
    return chars[chars != 0].tobytes()
