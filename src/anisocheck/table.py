"""Float tables as text, byte for byte as ``np.savetxt`` writes them.

Every value is written with ``"%.18e"`` (19 significant digits), the rows
joined by a delimiter, one row per line below one header line.  The text
of a finite normal value x with q = floor(log10 |x|) is its 19 digits
D = round(|x| 10^(18-q)) and its exponent q.  :func:`format_cells` computes
D for a whole block of values at once: an error-free Dekker product of |x|
against the high part of a double-double power of ten, plus the low terms,
leaves |x| 10^(18-q) as an integral double and a small correction whose
rounding error is below 1e-12 (a unit being the last of the 19 digits).
Where the power of ten is a double the sum is exact and a decimal tie is
rounded half to even.  Elsewhere, values whose fraction lies within
``TIE_MARGIN`` of a tie are formatted by ``format(x, ".18e")``, as are NaN,
infinities, subnormals and exponents outside the power table, so every
value gets its exact text.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

#: rows formatted together; a block's cells are held in memory at once
BLOCK_ROWS = 2048
#: bytes of a cell, seven 4-byte words: the first byte holds the separator
#: before the cell, and the longest "%.18e" text has 26 (sign, 19 digits,
#: point, "e", exponent sign, 3 digits)
CELL = 28
#: decimal exponents q of the Dekker path; beyond them |x| or 10^(18-q)
#: would overflow the Veltkamp split, so those values are formatted one by one
Q_MIN, Q_MAX = -280, 298
#: distance of a scaled fraction from 1/2 below which a value is formatted
#: one by one: far above the 1e-12 error of the scaled product
TIE_MARGIN = 2.0 ** -20

_SPLIT = 134217729.0          # 2^27 + 1, Veltkamp's splitting constant
_K0 = 18 - Q_MAX - 1          # smallest power 10^k in the table


def _split(a):
    """Veltkamp split a = head + tail, each half holding 26 bits."""
    c = _SPLIT * a
    head = c - (c - a)
    return head, a - head


@functools.cache
def _power_table():
    """(hi, hi_head, hi_tail, lo): the double-double 10^k = hi + lo for k in
    [18 - Q_MAX - 1, 18 - Q_MIN + 1] and the split of hi, built on first
    use from exact rationals."""
    from fractions import Fraction

    exact = [Fraction(10) ** k for k in range(_K0, 18 - Q_MIN + 2)]
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - Fraction(h)) for v, h in zip(exact, hi.tolist())])
    return (hi, *_split(hi), lo)


def _scaled(a, q):
    """(p, t) with p + t = a 10^(18-q) to within 1e-12, p an integral double:
    p and the exact error of p = fl(a hi) by Dekker's TwoProduct, plus a lo."""
    index = 18 - _K0 - q
    hi, hi_head, hi_tail, lo = (col[index] for col in _power_table())
    a_head, a_tail = _split(a)
    p = a * hi
    err = ((a_head * hi_head - p) + a_head * hi_tail + a_tail * hi_head) + a_tail * hi_tail
    return p, err + a * lo


@functools.cache
def _digit_words():
    """(lead, four, two, exponent): little-endian 4-byte words of ASCII text.
    ``lead[10 s + d]`` is [NUL, "-" if s else NUL, d, "."], ``four[v]`` the
    4 digits of v, ``two[v]`` the 2 digits of v and "e", and
    ``exponent[q + 999]`` the exponent sign, [hundreds or NUL], tens, units."""
    v = np.arange(20)
    lead = np.where(v >= 10, ord("-"), 0) << 8 | (v % 10 + 48) << 16 | ord(".") << 24
    v = np.arange(10000)
    four = sum((v // 10 ** (3 - i) % 10 + 48) << (8 * i) for i in range(4))
    v = np.arange(100)
    two = (v // 10 + 48) | (v % 10 + 48) << 8 | ord("e") << 16
    v = np.arange(-999, 1000)
    e = np.abs(v)
    exponent = np.where(v < 0, ord("-"), ord("+")) | np.where(e >= 100, e // 100 + 48, 0) << 8 \
        | (e // 10 % 10 + 48) << 16 | (e % 10 + 48) << 24
    return tuple(w.astype("<u4") for w in (lead, four, two, exponent))


def _digit_cells(values):
    """(cells, ok): the ``"%.18e"`` text of each value as a NUL-padded row of
    CELL bytes after one free byte, and where the Dekker path was certain
    of it."""
    x = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(x)
    zero = a == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.floor(np.log10(a))
    ok = (a >= np.finfo(np.float64).tiny) & (q >= Q_MIN) & (q <= Q_MAX)
    a[~ok] = 1.0
    q[~ok] = 0.0
    ok |= zero
    q = q.astype(np.int64)
    p, t = _scaled(a, q)
    # log10 may misplace q by one next to a power of ten.  q is right when
    # the scaled value P = a 10^(18-q) lies in [10^18, 10^19); below 10^18,
    # P in [10^18 - 1/20, 10^18) still rounds to 10^18 at q (at q - 1 the 19
    # digits would round up to 10^19), so q moves down below that only
    up = (p - 1e19) + t >= 0.0
    down = (p - 1e18) + t + 0.05
    ok &= np.abs(down) > TIE_MARGIN
    shift = up.astype(np.int64) - (down < 0.0)
    moved = np.flatnonzero(shift)
    if moved.size:
        q[moved] += shift[moved]
        p[moved], t[moved] = _scaled(a[moved], q[moved])
    # p is an even integer (at least 2^59), so rounding t half to even
    # rounds P half to even; for 0 <= 18 - q <= 22 the power of ten is a
    # double, lo = 0 and p + t is exact, so a fraction of 1/2 is a true tie
    r = np.rint(t)
    exact = (q >= -4) & (q <= 18)
    ok &= exact | (np.abs(t - r) < 0.5 - TIE_MARGIN)
    digits = p.astype(np.uint64) + r.astype(np.int64).view(np.uint64)
    # P in [10^19 - 1/2, 10^19) rounds up to 1.000...e(q+1)
    carry = np.flatnonzero(digits == np.uint64(10 ** 19))
    digits[carry] = 10 ** 18
    q[carry] += 1
    digits[zero] = 0
    q[zero] = 0

    # seven words: [NUL, sign, d0, "."], d1-d4, d5-d8, d9-d12, d13-d16,
    # [d17, d18, "e", NUL], [exponent sign, hundreds or NUL, tens, units]
    lead, four, two, exponent = _digit_words()
    words = np.empty((x.size, CELL // 4), dtype="<u4")
    first = digits // np.uint64(10 ** 18)
    rest = (digits - first * np.uint64(10 ** 18)).astype(np.int64)
    first = first.astype(np.int64)
    first += 10 * np.signbit(x)
    words[:, 0] = lead[first]
    high = rest // 10 ** 10                 # d1-d8; floor division by a
    low = rest - high * 10 ** 10            # constant is cheaper than divmod
    part = high // 10 ** 4
    words[:, 1] = four[part]
    words[:, 2] = four[high - part * 10 ** 4]
    part = low // 10 ** 6
    words[:, 3] = four[part]
    low -= part * 10 ** 6
    part = low // 100
    words[:, 4] = four[part]
    words[:, 5] = two[low - part * 100]
    words[:, 6] = exponent[q + 999]
    return words.view(np.uint8), ok


def format_cells(values):
    """The ``"%.18e"`` text of every value, in C order, as an (N, CELL)
    uint8 array of NUL-padded cells, each text after the first byte."""
    x = np.asarray(values, dtype=np.float64).ravel()
    cells, ok = _digit_cells(x)
    rest = np.flatnonzero(~ok)
    if rest.size:
        bits, inverse = np.unique(x[rest].view(np.uint64), return_inverse=True)
        text = [format(v, ".18e").encode() for v in bits.view(np.float64).tolist()]
        width = max(map(len, text))
        table = np.frombuffer(b"".join(s.ljust(width, b"\0") for s in text),
                              dtype=np.uint8).reshape(len(text), width)
        cells[rest] = 0
        cells[rest, 1:width + 1] = table[inverse.ravel()]
    return cells


def _row_bytes(cells, ncol, delimiter):
    """The lines of ``ncol``-column rows of ``cells``, joined by the one-byte
    ``delimiter`` and ended by newlines, as bytes.  The separators take the
    first byte of each cell, which no text reaches: the delimiter before
    each cell but the first of a row, the newline that ends the row before."""
    line = cells.reshape(-1, ncol, CELL)
    line[:, 1:, 0] = delimiter
    line[1:, 0, 0] = ord("\n")
    line[0, 0, 0] = 0
    return line.tobytes().translate(None, b"\0") + b"\n"


def row_blocks(table):
    """Blocks of ``BLOCK_ROWS`` rows of a 2-D array (views, not copies)."""
    return (table[lo:lo + BLOCK_ROWS] for lo in range(0, len(table), BLOCK_ROWS))


def write_table(targets, blocks):
    """Write the float row blocks ``blocks`` to every ``(path, delimiter,
    header)`` of ``targets``.  Each block is formatted once.  A file holds
    ``header`` and then the rows, as ``np.savetxt(path, table,
    fmt="%.18e", delimiter=delimiter, header=header, comments="")`` writes
    the table the blocks stack to."""
    with contextlib.ExitStack() as stack:
        files = []
        for path, delimiter, header in targets:
            fh = stack.enter_context(open(path, "wb"))
            if len(delimiter.encode()) != 1:
                raise ValueError(f"delimiter must be one byte, got {delimiter!r}")
            fh.write((header + "\n").encode())
            files.append((fh, ord(delimiter)))
        for block in blocks:
            cells = format_cells(block)
            for fh, delimiter in files:
                fh.write(_row_bytes(cells, block.shape[1], delimiter))
