"""Float tables as text, byte for byte as ``np.savetxt`` writes them.

Every value is written with ``"%.18e"`` (19 significant digits), the rows
joined by a delimiter, one row per line below one header line.  Formatting
is nearly all of the cost, about 1 us a value, and the tables repeat most
of their values: grid parameters, fields of the profile variable alone,
constant normals.  So each block of rows formats each distinct value once.
Values are told apart by their bit patterns, not by ``==``, so that -0.0
and 0.0 keep their own text.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np

#: rows formatted together; a block's text is held in memory at once
BLOCK_ROWS = 1024


def _format_block(block):
    """The ``"%.18e"`` text of every value of a 2-D float block, in C order."""
    bits = np.ascontiguousarray(block, dtype=np.float64).view(np.uint64).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    # format(x, ".18e") is "%.18e" % x, a third faster
    text = np.array(list(map(format, distinct.view(np.float64).tolist(),
                             itertools.repeat(".18e"))), dtype=object)
    return tuple(text[inverse].tolist())


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
            fh = stack.enter_context(open(path, "w"))
            fh.write(header + "\n")
            files.append((fh, delimiter))
        for block in blocks:
            rows, ncol = block.shape
            text = _format_block(block)
            for fh, delimiter in files:
                fh.write(((delimiter.join(["%s"] * ncol) + "\n") * rows) % text)
