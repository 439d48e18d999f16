"""``k,t,x`` CSV rows whose floats are spelled exactly as ``'%.17g' % v``.

Python formats one value at a time, at about 1 µs a row.  This module
writes the same bytes from whole arrays:

1. Digits.  For |v| in [1e-280, 1e16), the correctly rounded 17-digit
   significand D = d0 d1 ... d16 and decimal exponent X come from
   |v|·10^s, formed as a double-double product (Dekker's split, so no
   fused multiply-add is needed) against 10^s = hi + lo, with
   s = 16 - floor(log10|v|).  A product outside [1e16, 1e17) moves s by
   one; a D rounded up to 1e17 carries into X.  The product is good to
   about 1e-14 of a unit of D, so only a fraction within ``_TIE_MARGIN``
   of one half is left undecided.  Zeros take D = 0 and X = 0.
2. Text.  A value's field is four 8-byte words, each one table lookup
   keyed by small integers, and NUL bytes pad each word:
   - the prefix: the comma, the sign, then d0 and the dot, or ``0.``,
     zeros and d0 for X = -4..-1, keyed by X's notation, the sign,
     whether a dot follows d0, and d0;
   - two words of d1..d16 from a table of 4-digit strings, ANDed with a
     mask keyed by the number of digits kept;
   - the exponent word, ``e-05`` to ``e-281`` or nothing, keyed by X;
     the x column's also ends the row with the newline.
   For X = 1..15 (10 <= |v| < 1e16) the dot falls among d1..d15, so for
   those values alone the digit words move up one byte from d(X+1) on,
   the dot (or a NUL) goes in the gap, and the digit shifted out lands
   in the first byte of the exponent word, ahead of the newline.
3. Fallback.  Non-finite values, nonzero |v| outside [1e-280, 1e16) and
   near-ties are written by Python's ``'%.17g'`` into their own words.

Deleting the NUL bytes of a whole block of rows then leaves the CSV text.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

__all__ = ["csv_rows"]

_LOW, _HIGH = 1e-280, 1e16
_S_MAX = 16 + 281 + 1  # largest s in use: 16 - floor(log10(1e-280)), plus the fix
_TIE_MARGIN = 2.0**-30
_SPLIT = 134217729.0  # 2^27 + 1
# X of the values in range: fl(1e-280) spells 9.9999999999999996e-281
_X_MIN, _X_MAX = -281, 15
# prefix classes: d0 first, then "0." and X = -1..-4 leading zeros, then d0
# alone for X = 1..15, whose dot goes among the digit words
_D0_FIRST, _INNER_DOT = 0, 5
_LITTLE = sys.byteorder == "little"


def _words(texts) -> np.ndarray:
    """Each byte string NUL-padded to 8 bytes, as one native 64-bit word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), dtype=np.uint64)


def _later(words: np.ndarray, nbytes: int) -> np.ndarray:
    """``words`` with each byte moved ``nbytes`` places toward the word's end in memory."""
    return words << 8 * nbytes if _LITTLE else words >> 8 * nbytes


def _earlier(words: np.ndarray, nbytes: int) -> np.ndarray:
    """``words`` with each byte moved ``nbytes`` places toward the word's start."""
    return words >> 8 * nbytes if _LITTLE else words << 8 * nbytes


def _prefix(notation: int, negative: bool, dot: bool, d0: int) -> bytes:
    sign = b"-" if negative else b""
    if notation in (_D0_FIRST, _INNER_DOT):
        body = b"%d" % d0 + (b"." if dot and notation == _D0_FIRST else b"")
    else:
        body = b"0." + b"0" * (notation - 1) + b"%d" % d0
    return b"," + sign + body


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The kernel's read-only tables, built on first use rather than at import.

    - powers: column s holds 10^s = hi + lo, with hi split into two halves
      of 26 bits, as (hi, hi_hi, hi_lo, lo);
    - first4, second4: entry c is the four ASCII digits of c, zero-padded,
      in the first or the second half of a native 64-bit word;
    - trailing4: entry c counts the trailing zeros of those four digits;
    - prefixes: entry ((notation·2 + negative)·2 + dot)·10 + d0 is
      ``_prefix`` of those keys, as one word;
    - notations: entry X - _X_MIN is the prefix notation of X, times 40;
    - keep: entry [j, m] keeps digit word j's share of the first m of the
      16 digit bytes;
    - exponents: entry X - _X_MIN is the exponent word of the t column,
      and the next ``_X_MAX + 1 - _X_MIN`` entries those of the x column;
    - dots: entry [j, p] is digit word j's share of a dot at digit byte p
      (none at p = 16).
    """
    exact = [10**s for s in range(_S_MAX + 1)]
    hi = np.array([float(p) for p in exact])
    lo = np.array([float(p - int(float(p))) for p in exact])
    big = _SPLIT * hi
    hi_hi = big - (big - hi)
    powers = np.stack([hi, hi_hi, hi - hi_hi, lo])

    c = np.arange(10000, dtype=np.uint16)
    text = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1)
    text = (text + ord("0")).astype(np.uint8)
    halves = np.zeros((2, 10000, 2), dtype=np.uint32)
    halves[0, :, 0] = halves[1, :, 1] = text.view(np.uint32).ravel()
    first4, second4 = halves.view(np.uint64).reshape(2, 10000)
    trailing4 = np.cumprod(text[:, ::-1] == ord("0"), axis=1).sum(axis=1).astype(np.uint8)

    prefixes = _words([_prefix(notation, negative, dot, d0)
                       for notation in range(6) for negative in (False, True)
                       for dot in (False, True) for d0 in range(10)])
    x = np.arange(_X_MIN, _X_MAX + 1)
    notations = 40 * np.select([x < -4, x < 0, x == 0], [_D0_FIRST, -x, _D0_FIRST], _INNER_DOT)
    keep = np.stack([_words(b"\xff" * min(max(m - j, 0), 8) for m in range(17))
                     for j in (0, 8)])
    exponents = _words([b"" if e >= -4 else b"e%+03d" % e for e in x]
                       + [b"\0\n" if e >= -4 else b"e%+03d\n" % e for e in x])
    dots = np.stack([_words(b"\0" * (p - j) + b"." if j <= p < j + 8 else b"" for p in range(17))
                     for j in (0, 8)])
    tables = dict(powers=powers, first4=first4, second4=second4, trailing4=trailing4,
                  prefixes=prefixes, notations=notations, keep=keep, exponents=exponents,
                  dots=dots)
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _scaled(powers: np.ndarray, a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a·10^s as a double-double (hi, lo), with hi = fl(hi + lo)."""
    hi, hi_hi, hi_lo, lo = np.take(powers, s, axis=1)
    big = _SPLIT * a
    a_hi = big - (big - a)
    a_lo = a - a_hi
    p = a * hi
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    tail = err + a * lo
    top = p + tail
    return top, tail - (top - p)


def _outside(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of hi + lo below 1e16 and at or above 1e17."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    return below, above


def _digits(values: np.ndarray, powers: np.ndarray):
    """D, X and the mask of values they spell, for |values| in range or zero."""
    a = np.abs(values)
    fast = (a >= _LOW) & (a < _HIGH)
    zero = a == 0.0
    a = np.where(fast, a, 1.0)
    fast |= zero

    s = 16 - np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(powers, a, s)
    below, above = _outside(hi, lo)
    moved = np.flatnonzero(below | above)
    if moved.size:
        s[moved] += below[moved].astype(np.intp) - above[moved]
        hi[moved], lo[moved] = _scaled(powers, a[moved], s[moved])
        below, above = _outside(hi, lo)
        fast &= ~(below | above)
        hi[~fast] = 1e16

    floor = np.floor(lo)
    frac = lo - floor
    fast &= np.abs(frac - 0.5) >= _TIE_MARGIN
    d = hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    exponent = 16 - s
    carry = d == 10**17
    d[carry] = 10**16
    exponent[carry] += 1
    np.subtract(d, 10**16, out=d, where=zero)  # 1.0 spelled 1e16 with X = 0
    return d, exponent, fast


def _fields(values: np.ndarray, fields: np.ndarray) -> None:
    """Write the comma-led field of each value into ``fields``.

    ``values`` holds the t column, then the x column; ``fields`` is a
    (2, rows, 4) view of 64-bit words, and the x column's last word ends
    the row.
    """
    tables = _tables()
    d, exponent, fast = _digits(values, tables["powers"])
    count = fields.shape[1]

    high = d // 10**8  # d0 and d1..d8, then d9..d16: 32-bit from here on
    low = (d - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    d0 = high // 10**8
    high -= d0 * 10**8
    chunks = []  # d1..d4, d5..d8, d9..d12, d13..d16
    for part in (high, low):
        top = part // 10000
        chunks += [top, part - top * 10000]

    # m = digits kept after d0: a higher chunk matters only where the lower ones are 0
    m = 16 - np.take(tables["trailing4"], chunks[3])
    zero = np.flatnonzero(chunks[3] == 0)
    for chunk in chunks[2::-1]:
        if not zero.size:
            break
        m[zero] -= np.take(tables["trailing4"], chunk[zero])
        zero = zero[chunk[zero] == 0]

    index = exponent - _X_MIN
    key = np.take(tables["notations"], index) + d0
    key += 20 * np.signbit(values) + 10 * (m > 0)
    prefix = np.take(tables["prefixes"], key)
    index[count:] += _X_MAX + 1 - _X_MIN  # the x column's words end in the newline
    ending = np.take(tables["exponents"], index)

    inner = np.flatnonzero(exponent > 0)
    if inner.size:
        p = exponent[inner]
        at = np.where(m[inner] > p, p, 16)  # the dot's digit byte, if any
        m[inner] = np.maximum(m[inner], p)  # every digit before the dot
    digits = []
    for j in (0, 1):
        word = np.take(tables["first4"], chunks[2 * j])
        word |= np.take(tables["second4"], chunks[2 * j + 1])
        word &= np.take(tables["keep"][j], m)
        digits.append(word)
    if inner.size:
        # move the digit bytes from byte p on up by one, through both words
        # into the exponent word, and put the dot in the gap
        carry = 0
        for j, word in enumerate(digits):
            split, dot = np.take(tables["keep"][j], p), np.take(tables["dots"][j], at)
            kept = word[inner]
            moving = kept & ~split
            word[inner] = (kept & split) | dot | carry | _later(moving, 1)
            carry = _earlier(moving, 7)
        ending[inner] |= carry

    for j, word in enumerate((prefix, *digits, ending)):
        fields[0, :, j] = word[:count]
        fields[1, :, j] = word[count:]

    slow = np.flatnonzero(~fast)
    if slow.size:
        column, row = np.divmod(slow, count)
        text = "".join((",%-31.17g", ",%-30.17g\n")[c] % v
                       for c, v in zip(column.tolist(), values[slow].tolist()))
        padded = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        padded = np.where(padded == ord(" "), 0, padded).view(np.uint64)
        fields[column, row] = padded.reshape(slow.size, 4)


def _integers(first: int, words: np.ndarray) -> None:
    """Write first, first + 1, ... into the rows of ``words``, right-aligned behind NULs."""
    tables = _tables()
    count, width = words.shape
    last = first + count - 1
    k = np.arange(first, first + count, dtype=np.int64)
    for j in range(width - 1, -1, -1):
        q = k // 10000
        low = k - q * 10000
        k = q // 10000
        words[:, j] = np.take(tables["first4"], q - k * 10000) | np.take(tables["second4"], low)
    # the numbers are consecutive: blank the leading zeros of each digit count
    for ndigits in range(len(str(first)), len(str(last)) + 1):
        lo = max(10 ** (ndigits - 1) if ndigits > 1 else 0, first) - first
        hi = min(10**ndigits, last + 1) - first
        for j in range(width):
            blank = min(max(8 * (width - j) - ndigits, 0), 8)
            if blank:
                words[lo:hi, j] &= ~tables["keep"][0][blank]


def csv_rows(first: int, t, x) -> str:
    """Rows ``k,t,x`` for k = first, first + 1, ..., each ending in a newline.

    Every float reads exactly as ``'%.17g' % value`` would write it.
    """
    count = len(t)
    kwords = -(-len(str(first + count - 1)) // 8)
    rows = np.empty((count, kwords + 8), dtype=np.uint64)
    _integers(first, rows[:, :kwords])
    values = np.concatenate([t, x], dtype=np.float64)
    _fields(values, rows[:, kwords:].reshape(count, 2, 4).transpose(1, 0, 2))
    return rows.tobytes().translate(None, b"\0").decode("ascii")
