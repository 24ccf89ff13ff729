"""The exact ``%.17g`` kernel of the text writers.

``render`` formats a block of float64 values so that each value's field,
with its zero bytes dropped, is ``b"%.17g" % x``.  Per value it picks the
decimal exponent X from ``log10`` and corrects it by one from the floor of
the unrounded y = |x| 10**(16 - X).  y is ``|x| * (hi + lo)`` with Dekker's
exact product of |x| and hi (Numer. Math. 18, 224, 1971) and each 10**q held
as an exact hi + lo pair, so its relative error is about 2**-100 and round(y)
gives the 17 significant digits exactly unless y lies within 1e-6 of a half.
The kernel certifies or falls back, as Grisu does (Loitsch, PLDI 2010): those
near-ties, nan, +-inf, |x| outside [1e-290, 1e290] (where the split could
overflow or lose bits) and any y outside [10**16, 10**17) after the
correction are formatted one by one with ``b"%.17g" % x``; +-0 prints as
``0`` or ``-0``.

A field is ``WORDS`` uint32 words.  Byte 0 is left zero for the caller's
separator; then the sign, the integer part as 17 digits, the point, the
fraction as 20 digits and the exponent suffix, in ``%g``'s fixed form for
-4 <= X < 17 and its exponent form otherwise.  Digits become ASCII four at a
time through a table of 10**4 words.  Leading zeros of the integer part,
trailing zeros of the fraction, an unneeded point and unused bytes are zero
bytes, which the caller drops.  The tables are built on first use.

``render`` returns a block's fields as word rows: a contiguous
``(WORDS, N)`` array whose row k holds word k of every field, so each store
is one contiguous row and the caller transposes the block once.  When no
integer part in the block reaches 10**4 (every value of modulus at most 1,
say), the integer part is one group and its four-group split is skipped.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

WORDS = 12  # uint32 words of one number's field
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for doubles
_QMIN, _QMAX = -280, 308  # powers 10**q in the table; y = |x| 10**(16 - X) needs these
_LO, _HI = 1e-290, 1e290  # |x| the kernel certifies; Dekker's split stays finite and normal


def _split(a):
    """Dekker's split ``a = h + l``, each half with at most 26 significant bits."""
    c = _SPLIT * a
    h = c - (c - a)
    return h, a - h


@lru_cache(maxsize=1)  # built on first use, not at import
def _tables():
    count = _QMAX - _QMIN + 1
    hh, hl, lo = np.empty(count), np.empty(count), np.empty(count)
    for i, q in enumerate(range(_QMIN, _QMAX + 1)):
        # 10**q = num / den exactly; int division rounds correctly
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        hi = num / den
        a, b = hi.as_integer_ratio()
        lo[i] = (num * b - a * den) / (den * b)
        # split hi at unit scale: _SPLIT * hi would overflow near 10**308
        mant, exp = math.frexp(hi)
        h, low = _split(mant)
        hh[i], hl[i] = math.ldexp(h, exp), math.ldexp(low, exp)
    # each group 0000..9999 as a word of 4 ASCII digits, in three forms: rows
    # 0-9999 with leading zeros dropped (no nonzero digit before the group),
    # 10000-19999 in full, 20000-29999 with trailing zeros dropped (none after)
    groups = np.arange(10000, dtype=np.int32)
    text = np.empty((3, 10000, 4), np.uint8)
    for k in range(4):
        digit = groups // 10 ** (3 - k) % 10 + ord("0")
        text[0, :, k] = np.where(groups < 10 ** (3 - k), 0, digit)
        text[1, :, k] = digit
        text[2, :, k] = np.where(groups % 10 ** (4 - k) == 0, 0, digit)
    # field word 0: the lead byte (left zero), the sign and the 10**16 digit of
    # the integer part, shown only when nonzero
    first = b"".join(b"\0" + sign + b"\0" + (b"%d" % d if d else b"\0")
                     for sign in (b"\0", b"-") for d in range(10))
    # exponent suffixes, two words each; row 0 is the fixed form's empty suffix
    suffix = [b""] + [b"e%+03d" % e for e in range(_QMIN - 50, _QMAX + 51)]
    suffix = np.array(suffix, dtype="S8").view(np.uint32).reshape(-1, 2)
    f = np.arange(21)  # fraction digits of the fixed form
    return {
        "hh": hh, "hl": hl, "lo": lo,
        "group": text.reshape(-1).view(np.uint32),
        "first": np.frombuffer(first, np.uint32),
        "zero": np.frombuffer(b"\0\0\x000", np.uint32)[0],
        "dot": np.frombuffer(b".\0\0\0", np.uint32)[0],
        "suffix": suffix[:, 0].copy(), "suffix2": suffix[:, 1].copy(),
        "pow": np.array([10 ** k for k in range(18)], np.int64),
        "div": 10 ** np.maximum(f - 4, 0).astype(np.int64),
        "mul": 10 ** np.maximum(4 - f, 0).astype(np.int64),
        "lomul": 10 ** np.minimum(20 - f, 16).astype(np.int64),
    }


def _scaled(a, exponent, tables):
    """``floor(y)`` as int64 and ``y - floor(y)`` for ``y = a * 10**(16 - exponent)``.

    y is ``a * (hi + lo)`` with Dekker's exact product ``a * hi = p + e``; its
    relative error is about 2**-100, so the fraction is good to ~1e-13.
    """
    q = 16 - exponent - _QMIN
    hh, hl, lo = tables["hh"][q], tables["hl"][q], tables["lo"][q]
    # in place, in the order ((ah hh - p) + ah hl + al hh) + al hl + a lo:
    # a block's working memory is a few arrays
    p = hh + hl
    p *= a
    ah, al = _split(a)
    t = ah * hh
    t -= p
    ah *= hl
    t += ah
    hh *= al
    t += hh
    al *= hl
    t += al
    lo *= a
    t += lo
    del q, hh, hl, lo, ah, al
    whole = np.floor(p)
    p -= whole
    t += p
    up = np.floor(t)
    t -= up
    return whole.astype(np.int64) + up.astype(np.int64), t


def _groups(v):
    """The four 4-digit groups of ``v < 10**16``, most significant first."""
    hi = v // 10 ** 8
    lo = v - hi * 10 ** 8
    g1, g3 = hi // 10000, lo // 10000
    hi -= g1 * 10000
    lo -= g3 * 10000
    return g1, hi, g3, lo


def render(x: np.ndarray) -> np.ndarray:
    """The fields of the 1-D float64 array ``x`` as a contiguous ``(WORDS, len(x))``
    uint32 array of word rows: column i's nonzero bytes are ``b"%.17g" % x[i]``.

    Byte 0 of each field is zero, for the caller's separator.
    """
    tables = _tables()
    group = tables["group"]
    out = np.empty((WORDS, len(x)), np.uint32)  # every row is set below
    a = np.abs(x)
    ok = (a >= _LO) & (a <= _HI)
    a[~ok] = 1.0
    exponent = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, exponent, tables)
    # the floor of the unrounded y fixes the exponent: rounding up to 10**16
    # must not hide a y just below it
    step = (whole >= 10 ** 17).astype(np.int64) - (whole < 10 ** 16)
    moved = step != 0
    if moved.any():
        exponent[moved] += step[moved]
        whole[moved], frac[moved] = _scaled(a[moved], exponent[moved], tables)
    del a, step, moved  # each del frees a block-sized array: it bounds the writers' memory
    ok &= (whole >= 10 ** 16) & (whole < 10 ** 17) & (np.abs(frac - 0.5) >= 1e-6)
    digits = whole + (frac > 0.5)
    del whole, frac
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    exponent += carry
    digits[~ok] = 0  # zeros print as "0"; the fallbacks are overwritten below
    exponent[~ok] = 0
    # %g: fixed notation for -4 <= X < 17, else one digit, a fraction and e+-XX;
    # the exponent form lays out like the fixed form with X = 0
    fixed = (exponent >= -4) & (exponent < 17)
    places = 16 - np.where(fixed, exponent, 0)  # digits after the point, 0..20
    scale = tables["pow"][np.minimum(places, 17)]
    integer = digits // scale  # 0 when places > 16: 10**17 > digits
    rest = digits - integer * scale  # the fraction's digits as an integer
    del digits, scale
    # the fraction as 20 digits: one group 'head', then 16 digits 'tail'
    div = tables["div"][places]
    head = rest // div
    tail = (rest - head * div) * tables["lomul"][places]
    head *= tables["mul"][places]
    del rest, div, places
    # a group's form: 10000 once a nonzero digit is before it (full), else 0
    # (leading zeros dropped); in the fraction, 10000 once one is after it,
    # else 20000 (trailing zeros dropped)
    if len(x) and integer.max() >= 10 ** 4:
        top = integer // 10 ** 16
        out[0] = tables["first"][np.signbit(x) * 10 + top]
        form = np.where(top, 10000, 0)
        for k, part in enumerate(_groups(integer - top * 10 ** 16), start=1):
            out[k] = group[part + form]
            form = np.where(part, 10000, form)
        del top, form
    else:  # each integer part is one group, and no 10**16 digit
        out[0] = tables["first"][np.signbit(x) * 10]
        out[1:4] = 0
        out[4] = group[integer]
    out[4] |= tables["zero"] * (integer == 0)  # an integer part of 0 prints "0"
    del integer
    form = np.full(len(x), 20000)
    for k, part in zip((10, 9, 8, 7, 6), _groups(tail)[::-1] + (head,)):
        out[k] = group[part + form]
        form = np.where(part, 10000, form)
    out[5] = tables["dot"] * (form == 10000)  # no point before an empty fraction
    del head, tail, form
    suffix = np.where(fixed, 0, exponent - (_QMIN - 51))
    out[10] |= tables["suffix"][suffix]
    out[11] = tables["suffix2"][suffix]
    for i in np.flatnonzero(~ok & (x != 0)):
        field = (b"\0" + b"%.17g" % x[i]).ljust(4 * WORDS, b"\0")
        out[:, i] = np.frombuffer(field, np.uint32)
    return out
