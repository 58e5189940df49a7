"""The vectorized "%.18e" kernel of anisocheck.table against Python's own
formatting, byte for byte."""

import itertools
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from anisocheck import table as tb


def _kernel_lines(values):
    """The kernel's text of ``values``, one per line."""
    values = np.asarray(values, dtype=np.float64).ravel()
    return tb._row_bytes(tb.format_cells(values), 1, ord("\n"))


def _format_lines(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    return ("\n".join(map(format, values.tolist(), itertools.repeat(".18e"))) + "\n").encode()


def _assert_formats_alike(values):
    got, want = _kernel_lines(values), _format_lines(values)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} values differ, first {bad[:3]}")


def test_random_bit_patterns():
    rng = np.random.default_rng(11)
    for _ in range(16):
        _assert_formats_alike(rng.integers(0, 2**64, size=2**17, dtype=np.uint64)
                              .view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(Fraction(10) ** q) for q in range(-325, 309)])
    powers = powers[powers > 0.0]
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    _assert_formats_alike(np.concatenate([near, -near, [0.0, -0.0, np.inf, -np.inf, np.nan,
                                                        5e-324, 2.2250738585072014e-308]]))


def test_integers_above_two_to_the_53():
    rng = np.random.default_rng(12)
    ints = rng.integers(2**53, 2**63, size=100_000, dtype=np.int64).astype(np.float64)
    shifts = rng.integers(0, 64, size=ints.size)
    _assert_formats_alike(np.concatenate([ints, -ints, np.ldexp(ints, shifts),
                                          2.0 ** np.arange(53, 1024)]))


def _near_ties(q, bits, offsets):
    """Doubles x in [10^q, 10^(q+1)) with |x| 10^(18-q) = N + 1/2 + r / 2^bits
    for each r of ``offsets``: x = m 2^-(18-q+bits) with m 5^(18-q) = 2^(bits-1) + r
    modulo 2^bits, so r = 0 is an exact decimal tie at the 19th digit."""
    k = 18 - q
    inverse = pow(5**k, -1, 2**bits)
    out = []
    for r in offsets:
        m0 = (2 ** (bits - 1) + r) * inverse % 2**bits
        lo = -(-(Fraction(10) ** q * 2 ** (k + bits) - m0) // 2**bits)
        for j in range(lo, lo + 50):
            m = m0 + j * 2**bits
            assert m < 2**53
            x = float(Fraction(m, 2 ** (k + bits)))
            assert (Fraction(x) * Fraction(10) ** k - Fraction(1, 2)) % 1 == Fraction(r, 2**bits) % 1
            out.append(x)
    return out


def test_crafted_near_ties():
    offsets = [0, 1, -1, 2**10, -(2**10), 2**19, -(2**19), 2**20, -(2**20), 2**21, -(2**21),
               2**30, -(2**30)]
    values = [x for q in range(-12, -3) for x in _near_ties(q, 36, offsets)]
    values += [1.0 + 2.0**-19, 1.0 + 3 * 2.0**-19, 3.0 + 2.0**-19]
    assert len(values) > 5000
    values = np.array(values)
    _assert_formats_alike(np.concatenate([values, -values]))
    # a tie is rounded in the kernel where 10^(18-q) is a double (q = 0)
    # and goes to format() where it is not (q = -6)
    ok = tb._digit_cells(np.array([1.0 + 2.0**-19, _near_ties(-6, 36, [0])[0]]))[1]
    assert ok.tolist() == [True, False]


def test_import_builds_no_table(child_env):
    # importing the package costs every job its start-up time
    code = ("import sys, anisocheck.table as tb\n"
            "assert tb._power_table.cache_info().currsize == 0\n"
            "assert 'fractions' not in sys.modules\n"
            "tb.format_cells([1.0])\n"
            "assert tb._power_table.cache_info().currsize == 1")
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env, timeout=60)
