"""``k,t,x`` CSV rows whose floats are spelled exactly as ``'%.17g' % v``.

Python formats one value at a time, at about 1 µs a row.  This module
writes the same bytes from whole arrays:

1. Digits.  For |v| in [1e-280, 1e16), the correctly rounded 17-digit
   significand D and decimal exponent X come from |v|·10^s, formed as a
   double-double product (Dekker's split, so no fused multiply-add is
   needed) against 10^s = hi + lo, with s = 16 - floor(log10|v|).  A
   product outside [1e16, 1e17) moves s by one; a D rounded up to 1e17
   carries into X.  The product is good to about 1e-14 of a unit of D, so
   only a fraction within ``_TIE_MARGIN`` of one half is left undecided.
2. Text.  D is spelled through a table of 4-digit strings, and one gather
   from a layout table indexed by (sign, notation, significant digits)
   places the sign, zeros, dot and exponent in a field of NUL padding.
3. Fallback.  Zeros, non-finite values, |v| outside that range and
   near-ties are written by Python's ``'%.17g'`` into their own fields.

Deleting the NUL bytes of a whole block of rows then leaves the CSV text.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv_rows"]

_LOW, _HIGH = 1e-280, 1e16
_S_MAX = 16 + 281 + 1  # largest s in use: 16 - floor(log10(1e-280)), plus the fix
_TIE_MARGIN = 2.0**-30
_SPLIT = 134217729.0  # 2^27 + 1
_WIDTH = 24  # widest '%.17g' text, as in -2.2250738585072014e-308

# Bytes of a value's source words: 0-19 the digits of D, zero-padded to 20
# (digit j at 3 + j), 20-23 |X| zero-padded to 4, then the constant bytes.
_DIGIT0 = 3
_EXPONENT = (21, 22, 23)
_MINUS, _ZERO, _DOT, _E, _PAD = 24, 25, 26, 27, 28
_CONSTANTS = np.frombuffer(b"-0.e\0\0\0\0", dtype=np.uint64)[0]
_SOURCE_WORDS = 8
# notations: fixed for X = -4..16 (index X + 4), then scientific with a
# two- and a three-digit exponent
_SCI2, _SCI3 = 21, 22
_NOTATIONS = 23


def _layout(negative: bool, notation: int, nsig: int) -> list[int]:
    """Source bytes of the text of a value with this sign, notation and digit count."""
    digits = [_DIGIT0 + j for j in range(nsig)]
    text = [_MINUS] if negative else []
    if notation < _SCI2:
        x = notation - 4
        if x >= 0:
            text += [_DIGIT0 + j for j in range(x + 1)]
            if nsig > x + 1:
                text += [_DOT] + digits[x + 1 :]
        else:
            text += [_ZERO, _DOT] + [_ZERO] * (-x - 1) + digits
    else:
        text += digits[:1] + ([_DOT] + digits[1:] if nsig > 1 else [])
        text += [_E, _MINUS] + list(_EXPONENT[notation == _SCI2 :])
    return text + [_PAD] * (_WIDTH - len(text))


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's read-only tables, built on first use rather than at import.

    - powers: row s holds 10^s = hi + lo, with hi split into two halves of
      26 bits, as (hi, hi_hi, hi_lo, lo);
    - digits4: entry c is the four ASCII digits of c, zero-padded, as one
      native 32-bit word;
    - trailing4: entry c counts the trailing zeros of those four digits;
    - layouts: row (negative·_NOTATIONS + notation)·18 + nsig is ``_layout``.
    """
    exact = [10**s for s in range(_S_MAX + 1)]
    hi = np.array([float(p) for p in exact])
    lo = np.array([float(p - int(float(p))) for p in exact])
    big = _SPLIT * hi
    hi_hi = big - (big - hi)
    powers = np.stack([hi, hi_hi, hi - hi_hi, lo], axis=1)

    c = np.arange(10000)
    text = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1)
    text = (text + ord("0")).astype(np.uint8)
    digits4 = text.view(np.uint32).ravel()
    trailing4 = np.cumprod(text[:, ::-1] == ord("0"), axis=1).sum(axis=1)

    layouts = np.array(
        [
            _layout(negative, notation, nsig) if nsig else [_PAD] * _WIDTH
            for negative in (False, True)
            for notation in range(_NOTATIONS)
            for nsig in range(18)
        ],
        dtype=np.intp,
    )
    tables = (powers, digits4, trailing4, layouts)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(powers: np.ndarray, a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a·10^s as a double-double (hi, lo), with hi = fl(hi + lo)."""
    hi, hi_hi, hi_lo, lo = np.take(powers, s, axis=0).T
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


def _fields(values: np.ndarray) -> np.ndarray:
    """Each value as its '%.17g' text, NUL-padded to ``_WIDTH`` bytes."""
    powers, digits4, trailing4, layouts = _tables()
    n = values.size
    a = np.abs(values)
    fast = (a >= _LOW) & (a < _HIGH)
    a = np.where(fast, a, 1.0)

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

    source = np.empty((n, _SOURCE_WORDS), dtype=np.uint32)
    chunks = []  # of D, lowest first
    for word in range(4, -1, -1):
        q = d // 10000  # faster than np.divmod, which divides twice
        chunks.append(d - q * 10000)
        source[:, word] = digits4[chunks[-1]]
        d = q
    source[:, 5] = digits4[np.minimum(np.abs(exponent), 9999)]
    source.view(np.uint64)[:, 3] = _CONSTANTS
    source = source.view(np.uint8)

    # trailing zeros of D: a higher chunk matters only where the lower ones are 0
    trailing = trailing4[chunks[0]]
    zero = np.flatnonzero(chunks[0] == 0)
    for chunk in chunks[1:]:
        if not zero.size:
            break
        trailing[zero] += trailing4[chunk[zero]]
        zero = zero[chunk[zero] == 0]
    notation = np.where(exponent >= -4, exponent + 4,
                        np.where(exponent >= -99, _SCI2, _SCI3))
    key = (np.signbit(values) * _NOTATIONS + notation) * 18 + (17 - trailing)
    index = np.take(layouts, key, axis=0)
    index += (np.arange(n) * source.shape[1])[:, None]
    fields = source.ravel()[index]

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join(map("%-24.17g".__mod__, values[slow].tolist())).encode("ascii")
        padded = np.frombuffer(text, dtype=np.uint8).reshape(slow.size, _WIDTH)
        fields[slow] = np.where(padded == ord(" "), 0, padded)
    return fields


def _integers(first: int, count: int) -> np.ndarray:
    """first, first + 1, ... as right-aligned ASCII digits behind NUL padding."""
    digits4 = _tables()[1]
    last = first + count - 1
    width = len(str(last))
    words = -(-width // 4)
    k = np.arange(first, first + count, dtype=np.int64)
    source = np.empty((count, words), dtype=np.uint32)
    for word in range(words - 1, -1, -1):
        q = k // 10000
        source[:, word] = digits4[k - q * 10000]
        k = q
    text = source.view(np.uint8)
    # the numbers are consecutive: blank the leading zeros of each digit count
    for ndigits in range(len(str(first)), width + 1):
        lo = max(10 ** (ndigits - 1) if ndigits > 1 else 0, first) - first
        hi = min(10**ndigits, last + 1) - first
        text[lo:hi, : 4 * words - ndigits] = 0
    return text


def csv_rows(first: int, t, x) -> str:
    """Rows ``k,t,x`` for k = first, first + 1, ..., each ending in a newline.

    Every float reads exactly as ``'%.17g' % value`` would write it.
    """
    count = len(t)
    fields = _fields(np.concatenate([t, x], dtype=np.float64))
    k = _integers(first, count)
    width = k.shape[1]
    rows = np.empty((count, width + 2 * _WIDTH + 3), dtype=np.uint8)
    rows[:, :width] = k
    rows[:, width] = rows[:, width + _WIDTH + 1] = ord(",")
    rows[:, width + 1 : width + _WIDTH + 1] = fields[:count]
    rows[:, width + _WIDTH + 2 : -1] = fields[count:]
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0").decode("ascii")
