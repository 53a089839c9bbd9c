"""Exact ``format(x, ".17g")`` text of many doubles at once, in bulk with numpy.

``shellsym.cli`` formats each bit-distinct double of a command's float
columns once.  A table of at least its ``_KERNEL_MIN`` (256) distinct
doubles, such as a reduced command's at ``N >= 128``, goes through
:func:`kernel`; smaller tables, among them every ``check-sl``,
``layer-modes`` and ``check-ellipticity`` table, call ``format`` per value,
which is faster there, and never import this module.  The kernel finds the
17 digits from an error-free double-double product and hands to ``format``
every value whose digits it cannot prove (zero, non-finite, outside
``[1e-280, 1e281)``, or within ``2**-30`` of a rounding tie), so its text
equals ``format``'s byte for byte.  Its tables are built on the first call
and kept read-only.

This module imports nothing from ``shellsym.cli``: run as ``python -m
shellsym.cli``, the front end is ``__main__``, and importing it by name would
compile it a second time.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import _read_only

# decimal exponents E the kernel decides: |x| * 10**(16 - E) and the
# Veltkamp splits of |x| and of 10**(16 - E) stay below 1e305, and the low
# part of every power is a normal double
_E_MIN, _E_MAX = -280, 280
_VELTKAMP = 2.0 ** 27 + 1
# the computed y differs from |x| * 10**(16 - E) by less than 2**-47 (the
# error of the low part of the power and of two roundings in t); a fraction
# within this of 1/2, true ties among them, goes to format()
_TIE_WINDOW = 2.0 ** -30
_WIDTH = 24     # the longest .17g text, "-1.2345678901234567e-123"
_BLOCK = 1024   # rows of text assembled at once


def _split(v: np.ndarray) -> tuple:
    """Veltkamp split ``v = hi + lo`` into halves of at most 26 bits each."""
    t = _VELTKAMP * v
    hi = t - (t - v)
    return hi, v - hi


@functools.cache
def tables() -> tuple:
    """The read-only constants of ``kernel``, built on first use.

    ``10**q`` for ``q`` in ``[_E_MIN, 16 - _E_MIN]`` as the pair ``hi + lo``
    (``hi`` correctly rounded, ``lo`` the correctly rounded rest), with the
    split of ``hi`` and the least double not below ``10**q``; the ASCII
    bytes of each four-digit group and its count of trailing zeros; the
    exponent suffixes; and the character layout of each (sign, notation,
    significant-digit count) as byte offsets into the source row of
    ``kernel``.
    """
    hi, lo = [], []
    for q in range(_E_MIN, 17 - _E_MIN):
        if q >= 0:
            hi.append(float(10**q))
            lo.append(float(10**q - int(hi[-1])))
        else:
            # 10**q - hi = (den - num * 10**-q) / (10**-q * den), one rounding
            hi.append(1 / 10**-q)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10**-q) / (10**-q * den))
    hi, lo = np.array(hi), np.array(lo)
    # lo has the sign of the exact rest
    ceiling = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
    g = np.arange(10_000)
    digits = sum((g // 10 ** (3 - i) % 10 + ord("0")).astype(np.uint64) << np.uint64(8 * i)
                 for i in range(4))
    trailing = sum((g % 10**k == 0).astype(np.int64) for k in range(1, 5))
    suffix = np.array([int.from_bytes(f"e{e:+03d}".encode(), "little")
                       for e in range(_E_MIN, _E_MAX + 2)], dtype=np.uint64)
    rows = []
    for notation, more in itertools.product(range(22), range(17)):
        digit = list(range(7, 8 + more))     # the significant digits
        exp = notation - 4
        if notation == 21:      # scientific: exponent outside [-4, 16]
            chars = digit[:1] + ([1] + digit[1:] if more else []) + list(range(24, 29))
        elif exp < 0:
            chars = [3, 1] + [3] * (-exp - 1) + digit
        else:
            chars = list(range(7, 8 + exp)) + ([1] + digit[exp + 1:] if more > exp else [])
        rows += chars + [0] * (_WIDTH - 1 - len(chars))
    unsigned = np.array(rows, dtype=np.intp).reshape(-1, _WIDTH - 1)
    layouts = np.zeros((2, len(unsigned), _WIDTH), dtype=np.intp)
    layouts[0, :, :-1] = unsigned
    layouts[1, :, 0] = 2        # "-"
    layouts[1, :, 1:] = unsigned
    return _read_only(hi, lo, *_split(hi), ceiling, digits, trailing, suffix,
                      layouts.reshape(-1, _WIDTH))


def kernel(x: np.ndarray) -> tuple:
    """The ``format(v, ".17g")`` text of ``x`` and the mask of the values handed back.

    The text is an object array.  The 17 significant digits are
    ``D = round(|x| * 10**(16 - E))`` with ``E = floor(log10|x|)``, exact
    against a table of powers, from an error-free double-double product
    (Dekker 1971), rounded to nearest.  A value whose digits this cannot
    prove is handed back for ``format``, and its text here is meaningless:
    zero, non-finite and ``E`` outside ``[_E_MIN, _E_MAX]``, and a fraction
    within ``_TIE_WINDOW`` of 1/2.
    """
    pow_hi, pow_lo, pow_hi_hi, pow_hi_lo, ceiling, digits, trailing, suffix, layouts = \
        tables()
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        e10 = np.floor(np.log10(a))
    inside = (e10 >= _E_MIN) & (e10 <= _E_MAX)      # false for 0, inf and nan
    exp = np.where(inside, e10, 0.0).astype(np.int64)
    # log10 may round across a power of ten; the ceilings of 10**E decide
    exp += a >= ceiling[exp + 1 - _E_MIN]
    exp -= a < ceiling[exp - _E_MIN]
    sure = inside & (exp >= _E_MIN) & (exp <= _E_MAX)
    a = np.where(sure, a, 1.0)
    exp[~sure] = 0
    row = 16 - exp - _E_MIN
    hi_hi, hi_lo = pow_hi_hi[row], pow_hi_lo[row]
    # Dekker's product: p + err == a * hi exactly
    p = a * pow_hi[row]
    a_hi, a_lo = _split(a)
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    t = err + a * pow_lo[row]
    # y = p + t lies in [10**16, 10**17), so p is an integer in [2**53, 2**57)
    # and d, the nearest integer to y, in [10**16, 10**17]
    t_floor = np.floor(t)
    frac = t - t_floor
    d = p.astype(np.int64) + t_floor.astype(np.int64) + (frac > 0.5)
    sure &= np.abs(frac - 0.5) > _TIE_WINDOW
    carry = d == 10**17
    d[carry] = 10**16
    exp += carry

    # the lead digit and four groups of four; division by a scalar is the
    # fast integer path
    groups = []
    for scale in (10**16, 10**12, 10**8, 10**4):
        groups.append(d // scale)
        d -= groups[-1] * scale
    lead, g1, g2, g3, g4 = *groups, d
    # trailing zeros of the 16 digits after the lead, group by group
    zeros, run = trailing[g4], g4 == 0
    for group in (g3, g2, g1):
        zeros += run * trailing[group]
        run &= group == 0
    # the source row, 32 bytes: NUL . - 0 at 0-3, the 17 digits at 7-23
    # and the exponent suffix at 24-28
    src = np.empty((x.size, 4), dtype="<u8")
    head = int.from_bytes(b"\0.-0", "little")
    src[:, 0] = (lead + ord("0")).astype(np.uint64) << 56 | head
    src[:, 1] = digits[g1] | digits[g2] << 32
    src[:, 2] = digits[g3] | digits[g4] << 32
    src[:, 3] = suffix[exp - _E_MIN]
    notation = np.where((exp >= -4) & (exp <= 16), exp + 4, 21)
    kind = (np.signbit(x) * 22 + notation) * 17 + 16 - zeros
    text = np.empty(x.size, dtype=object)
    # in blocks of rows, so that the allocator reuses the temporaries: the
    # index and character arrays of a whole N = 4096 table (8 195 rows, 288
    # bytes a row) cost that job and the jobs after it 500 to 1 000 fresh
    # page faults each
    for start in range(0, x.size, _BLOCK):
        layout = layouts[kind[start:start + _BLOCK]]
        layout += np.arange(0, 32 * len(layout), 32)[:, None]
        chars = src[start:start + _BLOCK].view(np.uint8).ravel().take(layout)
        text[start:start + _BLOCK] = chars.astype(np.uint32).view(f"U{_WIDTH}").ravel()
    return text, ~sure
