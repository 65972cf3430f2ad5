"""'%.17g' of float64 arrays, byte for byte, for the CSV writers.

The text of a float is laid out in a slot of uint32 words, with NULs where
it has no byte; a writer lays slots and its other fields out in a word
buffer of rows and drops the NULs once per block (text).  cli imports this
module at its first CSV write, so a process that writes none neither
compiles it nor builds its tables.  Inside cli.py the kernel raised the peak
RSS of 12 in-process `polycbf run invariance` calls (sources compiled on
import) by about 0.65 MB over the per-value '%' writer; as this module, by
about 0.4 MB, most of it the numpy code its tables and first call page in.
"""

from __future__ import annotations

import numpy as np


def words(byte_rows) -> np.ndarray:
    """Each row of 4 bytes as one native uint32 word, which lays the 4 bytes
    down in order when it is written into a word buffer viewed as bytes."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(np.uint32)[..., 0]


def _group_words() -> np.ndarray:
    """Every 4-digit group as a word: [0, 1e4) with its leading zeros as
    NULs, [1e4, 2e4) with every digit, [2e4, 3e4) with its trailing zeros
    as NULs."""
    table = np.empty((3, 10000, 4), dtype=np.uint8)
    group = np.arange(10000, dtype=np.uint16)
    for col, power in enumerate((1000, 100, 10, 1)):
        table[:, :, col] = group // power % 10 + ord("0")
        table[0, group < power, col] = 0
        table[2, group % (10 * power) == 0, col] = 0
    return table.view(np.uint32).reshape(-1)


_GROUPS = _group_words()
NEWLINE = words([[ord("\n"), 0, 0, 0]])
# A slot's first word by the digit of 1e16 + 10 * sign bit: ',', NUL, '-'
# or NUL, the digit or NUL.
_HEAD = words([[ord(","), 0, sign, digit] for sign in (0, ord("-"))
               for digit in [0] + list(range(ord("1"), ord("9") + 1))])
# The word after the integer part by (integer part 0) + 2 * (fraction not
# 0): NUL, NUL, '0' or NUL, '.' or NUL.
_POINT = words([[0, 0, zero, point] for point in (0, ord(".")) for zero in (0, ord("0"))])
# By k = 16 - E: 10**k and its Veltkamp split into 26 and 27 bits.
_P10 = np.array([10.0 ** k for k in range(21)])
_P10_HI = _P10 * 134217729.0 - (_P10 * 134217729.0 - _P10)
_P10_LO = _P10 - _P10_HI
# By k: the unit of the integer part (any value where the integer part is 0),
# then d, m and l, which left-align a fraction f of k digits in 20 digits
# as (f // d * m) * 10**4 + f % d * l.
_UNIT, _DIV, _MUL, _LOW = np.array(
    [[10 ** min(k, 18), 10 ** max(k - 16, 0), 10 ** max(16 - k, 0), 10 ** min(20 - k, 4)]
     for k in range(21)], dtype=np.int64).T.copy()


def _digits17(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10**k), exactly, for a * 10**k in [2**53, 2**63)."""
    p = a * _P10[k]
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    hi, lo = _P10_HI[k], _P10_LO[k]
    err = ((ah * hi - p) + ah * lo + al * hi) + al * lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def g17_slots(x: np.ndarray) -> np.ndarray:
    """',' + '%.17g' % v for each v of the flat float64 array x, as rows of
    words: ',', the sign and the digit of 1e16; one to four groups of 4
    digits of the integer part, as many as the largest value needs,
    right-aligned, leading zeros NUL; '0' when the integer part is 0 and '.'
    when the fraction is not; five groups of the fraction, left-aligned,
    trailing zeros NUL.

    '%.17g' writes v in fixed notation when its 17-digit rounding has an
    exponent E = floor(log10|v|) in [-4, 17), that is for the doubles with
    1e-4 <= |v| < 1e17 (a double rounds up into the next decade only at a
    power of ten itself).  Their 17 digits are D = round-half-even(|v| *
    10**k) with k = 16 - E, the integer in [1e16, 1e17) within 1/2 of
    |v| * 10**k, and the text is D / 10**k without the fraction's trailing
    zeros, or without the '.' when they are all of it.  D is exact here:
    10**k is a double for k <= 22; Dekker's two-product gives err with
    p + err == |v| * 10**k exactly, p being the rounded product; and p >=
    2**53 is an even integer, so round-half-even(p + err) == p + rint(err).
    log10 may miss E by one next to a power of ten, which leaves D outside
    [1e16, 1e17); those values move E by one and are rounded again.  The
    integer part is floor(|v|), since no double lies within 1/2 * 10**-k
    below an integer >= 10**E, and the fraction is D - floor(|v|) * 10**k.
    A zero takes the same path with D = 0.  NaN, the infinities and the
    doubles outside the range (0.4% of the adaptive preset's values) are
    formatted by '%' one by one.
    """
    ax = np.abs(x)
    fixed = (ax >= 1e-4) & (ax < 1e17)
    a = np.where(fixed, ax, 0.0)
    with np.errstate(divide="ignore"):
        k = np.clip(16.0 - np.floor(np.log10(a)), 0, 20).astype(np.intp)
    d = _digits17(a, k)
    off = np.flatnonzero(((d < 10 ** 16) | (d >= 10 ** 17)) & fixed)
    if len(off):
        k[off] += np.where(d[off] < 10 ** 16, 1, -1)
        d[off] = _digits17(a[off], k[off])
    # The integer part in as many groups of 4 digits as the largest needs,
    # up to 4, from the units up; the digit of 1e16 goes to the first word.
    # A group takes the table with leading zeros as NULs when no group above
    # it holds a digit: its key is min(the groups from it up, group + 1e4).
    whole = q = a.astype(np.int64)
    groups = min(4, -(-len(str(whole.max(initial=0))) // 4))
    out = np.empty((len(x), groups + 7), dtype=np.uint32)
    for col in range(groups, 0, -1):
        above = q // 10000
        out[:, col] = _GROUPS[np.minimum(q, q - above * 10000 + 10000)]
        q = above
    out[:, 0] = _HEAD[q + 10 * np.signbit(x)]
    f = d - whole * _UNIT[k]
    out[:, -6] = _POINT[(whole == 0) + 2 * (f != 0)]
    # The fraction's five groups.  A group takes the table with trailing
    # zeros as NULs when no group after it holds a digit.
    div = _DIV[k]
    top = f // div
    low = (f - top * div) * _LOW[k]
    top *= _MUL[k]
    out[:, -1] = _GROUPS[low + 20000]
    bare = low == 0
    for col in (-2, -3, -4):
        above = top // 10000
        group = top - above * 10000
        out[:, col] = _GROUPS[group + 10000 + 10000 * bare]
        bare &= group == 0
        top = above
    out[:, -5] = _GROUPS[top + 10000 + 10000 * bare]
    other = np.flatnonzero(~fixed & (ax != 0))
    if len(other):
        texts = np.array([b",%.17g" % v for v in x[other].tolist()], dtype=f"S{4 * out.shape[1]}")
        out[other] = texts.view(np.uint32).reshape(len(other), -1)
    return out


def int_words(values: np.ndarray, width: int) -> np.ndarray:
    """The decimal text of non-negative ints as rows of `width` words,
    padded with NULs."""
    return values.astype(f"S{4 * width}").view(np.uint32).reshape(len(values), width)


def text(rows: np.ndarray) -> bytes:
    """The bytes of a word buffer without its NULs."""
    data = rows.view(np.uint8)
    return data[data != 0].tobytes()
