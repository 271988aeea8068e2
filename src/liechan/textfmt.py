"""Report text: the ``'%.17g'`` tables of CSV reports and the layout of JSON
reports.

:func:`format_rows` gives, for a 2-D float64 table, exactly
``[",".join("%.17g" % x for x in row) for row in table.tolist()]``, built
with array operations instead of one string conversion per value.

:func:`json_text` gives exactly ``json.dumps(obj, sort_keys=True,
indent=2)``, with each table of numbers written by json's C encoder and only
the whitespace between its tokens laid out here.

Only the CLI imports this module, so ``import liechan.repgen`` does not
compile it.
"""

from __future__ import annotations

import functools
import json
import re
from itertools import chain, product

import numpy as np

# For a double x in [2^-100, 1e16) the 17 significant digits are the integer
# N = round(|x| 10^(16-E)) in [1e16, 1e17), E the decimal exponent.  With
# q = 16 - E in [0, 48], T = 10^q is held as the double-double hi + lo
# (hi = fl(T), lo = fl(T - hi), so T = hi + lo + delta, |delta| <= 2^-106 T),
# and |x| T is formed as p + s:
# * p + e = |x| hi exactly, by Dekker's two-product (Veltkamp splits of |x|
#   and hi; no partial product underflows for |x| >= 2^-100);
# * s = fl(e + fl(|x| lo)).
# When |x| T < 1e17 < 2^57: |e| <= ulp(p)/2 <= 8 and |x lo| <= 2^-53 |x| T
# < 11.2, so fl(|x| lo) is off by at most 2^-50, the sum (below 32) by
# 2^-49, and the dropped |x| delta is at most 2^-106 2^57 = 2^-49.  So
# s = |x| T - p + err, |err| < 2^-47 (7.1e-15).  p >= 2^53 is an integer
# there, so N = p + rint(s) unless the fraction f = s - rint(s) (exact) lies
# within 2^-47 of +-1/2.  Cells with |f| > 1/2 - _TIE_GUARD (2^-20,
# 7 orders of magnitude above that bound) are left to Python's correctly
# rounded '%.17g', as are zeros, non-finite values and values outside
# [2^-100, 1e16).  E starts at floor(log10|x|), which is off by at most one;
# a cell whose unrounded |x| T may lie outside [1e16, 1e17) moves E by one
# and is formed again, and is left to Python if it still does.
#
# The text of a cell depends only on its 17 digits and on (sign, E, last
# nonzero digit), the key of a layout: a row of column indices into a source
# row of the cell's digits, its separator and constant characters, padded
# with a NUL column that is dropped from the text.  So a chunk of cells is
# one gather.  The source row keeps digits 1..16 as four aligned uint32
# words, filled from a table of the 10^4 four-digit ASCII words.

_LOW, _HIGH = 2.0 ** -100, 1e16
_EXPONENTS = range(-31, 16)     # E of every double in [2^-100, 1e16)
_TIE_GUARD = 2.0 ** -20
_CHUNK = 2048                   # cells formatted per gather
_WIDTH = 25                     # longest '%.17g' text (24) plus separator
_VELTKAMP = 134217729.0         # 2^27 + 1
# source row: digits 1..16, digit 0, separator, constants, NUL
_LEAD, _SEP, _CONSTANTS = 16, 17, b"-.e0123456789\0"
_MINUS, _DOT, _E, _ZERO, _PAD = (_SEP + 1 + _CONSTANTS.index(c) for c in b"-.e0\0")


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = high + low, each half of 26 significant bits."""
    c = _VELTKAMP * a
    high = c - (c - a)
    return high, a - high


@functools.cache
def _tables() -> tuple:
    """10^q for q = 0..48 as hi, hi's split and lo; the four-digit ASCII
    words and their trailing-zero counts (4 for 0000); each layout's column
    indices, by key."""
    hi = np.array([float(10 ** q) for q in range(49)])
    lo = np.array([float(10 ** q - int(h)) for q, h in enumerate(hi.tolist())])
    text = "".join(f"{i:04d}" for i in range(10000))
    words = np.frombuffer(text.encode(), dtype=np.uint32)
    zeros = np.array([4 - len(text[i:i + 4].rstrip("0")) for i in range(0, 40000, 4)], dtype=np.uint8)
    keys = list(product((False, True), _EXPONENTS, range(17)))
    layouts = np.full((len(keys), _WIDTH), _PAD, dtype=np.intp)
    for key, (neg, e10, last) in enumerate(keys):
        digit = [_LEAD, *range(16)]   # column of each digit
        cols = [_MINUS] if neg else []
        if e10 >= 0:            # ddd[.ddd]
            cols += digit[:e10 + 1] + ([_DOT, *digit[e10 + 1:last + 1]] if last > e10 else [])
        elif e10 >= -4:         # 0.000ddd
            cols += [_ZERO, _DOT] + [_ZERO] * (-e10 - 1) + digit[:last + 1]
        else:                   # d[.ddd]e-XX
            cols += [_LEAD] + ([_DOT, *digit[1:last + 1]] if last else [])
            cols += [_E, _MINUS, _ZERO + -e10 // 10, _ZERO + -e10 % 10]
        layouts[key, :len(cols) + 1] = cols + [_SEP]
    return (hi, *_split(hi), lo), words, zeros, layouts


def _digits(a: np.ndarray, e10: np.ndarray, powers) -> tuple[np.ndarray, np.ndarray]:
    """N = p + rint(s) and the fraction s - rint(s) of a 10^(16 - e10)."""
    q = 16 - e10
    hi, hi_high, hi_low, lo = (t.take(q) for t in powers)
    p = a * hi
    a_high, a_low = _split(a)
    s = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    s += a * lo
    r = np.rint(s)
    s -= r
    return p.astype(np.int64) + r.astype(np.int64), s


def _off_range(n17: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Cells whose unrounded |x| 10^(16-E) may lie outside [1e16, 1e17)."""
    return (n17 < 10 ** 16) | (n17 == 10 ** 16) & (frac < 0) | (n17 >= 10 ** 17)


def _chunk(x: np.ndarray, src: np.ndarray, offsets: np.ndarray, tables) -> bytes:
    """The text of the cells x, each followed by its separator (src's column
    _SEP, laid out for these cells)."""
    powers, words, zeros, layouts = tables
    n = x.size
    a = np.abs(x)
    fast = (a >= _LOW) & (a < _HIGH)     # False for zeros, NaN and infinities
    a[~fast] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.intp)
    n17, frac = _digits(a, e10, powers)
    off = np.flatnonzero(_off_range(n17, frac))
    if off.size:
        e10[off] += np.where(n17[off] <= 10 ** 16, -1, 1)
        n17[off], frac[off] = _digits(a[off], e10[off], powers)
        fast[off[_off_range(n17[off], frac[off])]] = False
    fast &= np.abs(frac) <= 0.5 - _TIE_GUARD
    # digit 0 and the words of digits 1-4, 5-8, 9-12, 13-16: y / 1e4 is
    # correctly rounded, so its floor is exact for integers y below 2^53
    y = np.empty((n, 2))
    y[:, 0], y[:, 1] = np.divmod(n17, 10 ** 8)
    quot = np.floor(y / 1e4)
    y -= 1e4 * quot
    lead = np.floor(quot[:, 0] / 1e4)
    quot[:, 0] -= 1e4 * lead
    groups = np.empty((n, 4), dtype=np.intp)
    groups[:, 0::2], groups[:, 1::2] = quot, y
    src[:n, :_LEAD].view(np.uint32)[:] = words.take(groups)
    src[:n, _LEAD] = lead
    src[:n, _LEAD] += ord("0")
    tz = zeros.take(groups.T)
    trailing = tz[0]
    for j in (1, 2, 3):
        trailing = tz[j] + (tz[j] == 4) * trailing
    key = (np.signbit(x) * len(_EXPONENTS) + (e10 - _EXPONENTS[0])) * 17 + (16 - trailing)
    slow = np.flatnonzero(~fast)
    key[slow] = 0
    idx = layouts.take(key, axis=0)
    idx += offsets[:n]
    chars = src.ravel().take(idx)
    if slow.size:
        texts = [("%.17g" % v).encode().ljust(_WIDTH - 1, b"\0") for v in x[slow].tolist()]
        chars[slow, :-1] = np.frombuffer(b"".join(texts), np.uint8).reshape(-1, _WIDTH - 1)
        chars[slow, -1] = src[slow, _SEP]
    return chars.tobytes().translate(None, b"\0")


def format_rows(table) -> list[str]:
    """``[",".join("%.17g" % x for x in row) for row in table.tolist()]`` for
    a 2-D float64 table, built by array operations on chunks of whole rows
    (about _CHUNK cells each); see the comment above for the arithmetic
    and which cells Python's own '%.17g' formats."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"expected a 2-D table, got shape {table.shape}")
    rows, cols = table.shape
    if not rows * cols:
        return [""] * rows
    tables = _tables()
    per = max(1, _CHUNK // cols) * cols
    src = np.empty((per, _SEP + 1 + len(_CONSTANTS)), dtype=np.uint8)
    src[:, _SEP] = np.tile(np.frombuffer(b"," * (cols - 1) + b"\n", np.uint8), per // cols)
    src[:, _SEP + 1:] = np.frombuffer(_CONSTANTS, np.uint8)
    offsets = np.arange(0, src.size, src.shape[1])[:, None]
    flat = table.ravel()
    text = b"".join(_chunk(flat[i:i + per], src, offsets, tables)
                    for i in range(0, flat.size, per))
    return text.decode("ascii").split("\n")[:-1]


# A number table of a JSON report is a non-empty list of numbers, or a
# non-empty list of non-empty lists of numbers: a matrix's entries, a Bloch
# vector.  Numbers are matched by exact type, so a bool or an np.float64
# stays with the Python encoder.  json's C encoder writes a table as
# "[[a, b], [c, d]]"; its numbers hold no bracket, comma or space, so the
# indent-2 layout of the table is two str.replace calls.  In the indent-2
# text of the rest of the report every value ends its own line and no string
# holds a raw newline, so a "[]" that ends a line is an empty list: the
# skeleton's placeholder of a table, or a list that was empty.
_NUMBERS = frozenset((int, float))
_ROWS = frozenset((list, tuple))
_EMPTY_LIST = re.compile(r"\[\](?=,?$)", re.M)


def _skeleton(obj, tables: list):
    """obj with each number table replaced by [], appending to tables, in
    the order the encoder writes them, each empty list of the result's
    text: its table, or None for a list that was empty."""
    if isinstance(obj, dict):
        return {key: _skeleton(obj[key], tables) for key in sorted(obj)}
    if not isinstance(obj, (list, tuple)):
        return obj
    if not obj:
        tables.append(None)
        return obj
    types = set(map(type, obj))
    if types <= _NUMBERS or (types <= _ROWS and all(obj)
                             and set(map(type, chain.from_iterable(obj))) <= _NUMBERS):
        tables.append(obj)
        return []
    return [_skeleton(x, tables) for x in obj]


def _table_text(table, indent: str) -> str:
    """The indent-2 text of a number table whose "[" opens a line indented
    by indent."""
    inner = indent + "  "
    text = json.dumps(table)
    if type(table[0]) in _ROWS:
        cell = inner + "  "
        body = text[2:-2].replace(", ", ",\n" + cell)
        body = body.replace(f"],\n{cell}[", f"\n{inner}],\n{inner}[\n{cell}")
        return f"[\n{inner}[\n{cell}{body}\n{inner}]\n{indent}]"
    return f"[\n{inner}" + text[1:-1].replace(", ", ",\n" + inner) + f"\n{indent}]"


def json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, with each number table
    written by json's C encoder (see the comment above)."""
    tables: list = []
    text = json.dumps(_skeleton(obj, tables), sort_keys=True, indent=2)
    parts, pos = [], 0
    for match, table in zip(_EMPTY_LIST.finditer(text), tables, strict=True):
        if table is not None:
            at = match.start()
            line = text[text.rfind("\n", 0, at) + 1:at]
            parts += [text[pos:at], _table_text(table, " " * (len(line) - len(line.lstrip(" "))))]
            pos = match.end()
    parts.append(text[pos:])
    return "".join(parts)
