"""CSV text of a float64 table whose every cell is the cell's ``repr``.

``repr_table(rows, head)`` equals ``head +
"".join(",".join(map(repr, row)) + "\\n" for row in rows.tolist())``
byte for byte, computed in numpy over chunks of about 8 K cells into one
buffer that starts with the head's bytes.

Digits.  Each finite nonzero cell's shortest round-trip decimal comes from
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020; the
steps of Java's ``DoubleToDecimal`` without its two-digit minimum for the
smallest subnormals): three round-to-odd products of the significand with
a 126-bit power of ten, done exactly in 28-bit limbs so that no uint64 sum
overflows.  Among the shortest decimals that read back as the cell it takes
the one closest to it, ties to even, as CPython's ``repr`` does; integers
below 2**53 need no path of their own.

Characters.  Each cell writes its 17 digits (zero-padded on the right) and
its exponent digits into a 32-byte source row that also holds the constant
characters and the cell's separator.  One gather through a per-layout
template of source offsets puts Python's layout in place: positional for
-4 < decpt <= 16 (``.0`` on integers), else ``d.ddde±XX``.  The templates
pad with the row's zero byte, which one boolean mask drops; each chunk
gathers only as many template columns as its widest cell needs.  Every
gather is an ``np.take``, which is faster than the same fancy index.
"""

from __future__ import annotations

import numpy as np

_CHUNK_CELLS = 8192
_M28 = np.uint64((1 << 28) - 1)


def _floor_log2_pow10(e):
    return (e * 913124641741) >> 38


def _g(e: int) -> int:
    """floor(10**e * 2**(125 - floor(log2 10**e))) + 1, in [2**125, 2**126)."""
    shift = 125 - _floor_log2_pow10(e)
    if e < 0:
        return (1 << shift) // 10**-e + 1
    return (10**e << shift if shift >= 0 else 10**e >> -shift) + 1


def _exponent_tables():
    """Per biased exponent, and again at +2048 for a power-of-two significand
    whose lower neighbour is closer: the decimal exponent k of Schubfach's
    candidates and g(-k) << h as five 28-bit limbs (h folds Schubfach's
    ``cb << h`` into the table)."""
    row = np.arange(4096)
    q = (row & 2047) - 1075
    k = (q * 661971961083 - np.where(row >= 2048, 274743187321, 0)) >> 41
    h = (q + _floor_log2_pow10(-k) + 2).astype(np.uint64)  # 2 to 5
    e_min = int(-k.max())
    g = [_g(e) for e in range(e_min, int(-k.min()) + 1)]
    limbs = np.array(
        [[x >> (28 * i) & (1 << 28) - 1 for x in g] for i in range(5)],
        dtype=np.uint64,
    )[:, -k - e_min]
    shifted = limbs << h & _M28
    shifted[1:] |= limbs[:-1] >> (np.uint64(28) - h)
    return k, shifted


_K, _G = _exponent_tables()


def _rop(g, cp):
    """floor(g * cp / 2**127), with its last bit set when bits 64-126 of the
    product are not all zero (round to odd, on the bits that Giulietti's
    implementation reads).

    ``g`` is five 28-bit limbs of shape (n,) and ``cp`` below 2**56 of shape
    (3, n), so that no column sum reaches 2**58.  The table's g exceeds the
    power of ten by less than 2**5, so the product exceeds the exact one by
    less than 2**61: bits 64-126 stay zero where the exact quotient is an
    integer, and the paper bounds any other fraction away from 0 and 1 by
    more than that.
    """
    q0 = cp & _M28
    q1 = cp >> np.uint64(28)
    g0, g1, g2, g3, g4 = g
    s28 = np.uint64(28)
    acc = g0 * q0 >> s28
    acc = (acc + g1 * q0 + g0 * q1) >> s28
    acc = acc + g2 * q0 + g1 * q1
    sticky = acc >> np.uint64(8) & np.uint64((1 << 20) - 1)
    acc = (acc >> s28) + g3 * q0 + g2 * q1
    sticky |= acc & _M28
    acc = (acc >> s28) + g4 * q0 + g3 * q1  # bit 112 up, less g4 * q1
    sticky |= acc & np.uint64(0x7FFF)
    out = (acc >> np.uint64(15)) + (g4 * q1 << np.uint64(13))
    return out | (sticky != 0)


def _decimal(be, t):
    """(f, e10): f * 10**e10 is the shortest decimal that reads back as the
    finite nonzero double of biased exponent ``be`` and fraction ``t``.
    Other cells give some f below 10**17."""
    u = np.uint64
    c = t | (be != 0).astype(np.uint64) << u(52)
    irregular = (t == 0) & (be > 1)
    row = np.maximum(be, u(1)).astype(np.intp) + (irregular << 11)
    cp = np.empty((3, len(c)), dtype=np.uint64)
    np.left_shift(c, u(2), out=cp[1])
    cp[0] = cp[1] - u(2) + irregular
    cp[2] = cp[1] + u(2)
    vbl, vb, vbr = _rop(np.take(_G, row, axis=1), cp)

    odd = c & u(1)  # an even significand's interval includes its ends
    lower = vbl + odd
    upper = vbr - odd
    s = vb >> u(2)
    sp = s // u(10)
    sp40 = sp * u(40)
    up_in = lower <= sp40
    wp_in = sp40 + u(40) <= upper
    shorter = (up_in != wp_in) & (s >= 10)
    s4 = vb & ~u(3)
    u_in = lower <= s4
    w_in = s4 + u(4) <= upper
    round_up = (vb & u(3)) + (s & u(1)) > 2
    f = np.where(shorter, sp + wp_in, s + np.where(u_in != w_in, w_in, round_up))
    return f.view(np.int64), np.take(_K, row) + shorter


# A cell's source row.  A-Q are its 17 digits (B-Q four aligned quads), X Y Z
# the exponent's hundreds, tens and ones (an aligned quad after its leading
# '0', which also serves as the constant '0'), ',' its separator and ' ' the
# zero byte; the other characters stand for themselves.
_SOURCE = "A-.eBCDEFGHIJKLMNOPQ0XYZ+infa, "
_WIDTH = 25  # the longest repr, '-2.2250738585072014e-308', and a separator
_N_LAYOUT = 24  # positional with decpt -3..16, then e+XX, e+XXX, e-XX, e-XXX
_SPECIAL = _N_LAYOUT * 17 * 2  # then 0.0, -0.0, inf, -inf, nan, nan


def _pattern(layout: int, ndig: int) -> str:
    digits = "ABCDEFGHIJKLMNOPQ"[:ndig]
    decpt = layout - 3
    if layout >= 20:
        negative_exp, three = divmod(layout - 20, 2)
        point = "." + digits[1:] if ndig > 1 else ""
        return digits[0] + point + "e" + "+-"[negative_exp] + "X" * three + "YZ"
    if decpt <= 0:
        return "0." + "0" * -decpt + digits
    if decpt < ndig:
        return digits[:decpt] + "." + digits[decpt:]
    return digits + "0" * (decpt - ndig) + ".0"


def _templates() -> tuple[np.ndarray, np.ndarray]:
    """Source offsets of each layout, at (layout * 17 + ndig - 1) * 2 + the
    sign bit, then of the special values; and each template's width (its
    text and separator)."""
    patterns = [
        sign + _pattern(layout, ndig)
        for layout in range(_N_LAYOUT)
        for ndig in range(1, 18)
        for sign in ("", "-")
    ]
    patterns += ["0.0", "-0.0", "inf", "-inf", "nan", "nan"]
    text = "".join((p + ",").ljust(_WIDTH) for p in patterns).encode()
    to_offset = bytes.maketrans(_SOURCE.encode(), bytes(range(len(_SOURCE))))
    offsets = np.frombuffer(text.translate(to_offset), np.uint8)
    widths = np.array([len(p) + 1 for p in patterns], np.int8)
    return offsets.reshape(-1, _WIDTH).astype(np.int32), widths


_TEMPLATES, _TEMPLATE_WIDTH = _templates()
_P10 = 10 ** np.arange(18, dtype=np.int64)


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four digit characters of 0-9999 as one uint32, and at
    10000 j + quad, ndig - 1 when quad j (digits 4j + 1 to 4j + 4) is the
    last quad not zero."""
    digits = np.indices((10,) * 4).reshape(4, -1)  # of 0-9999, thousands first
    chars = (digits.T + 48).astype(np.uint8, order="C").view("<u4").reshape(-1)
    used = (np.arange(1, 5)[:, None] * (digits != 0)).max(axis=0)  # to the last nonzero
    last = np.where(used > 0, 4 * np.arange(4)[:, None] + used, 0)
    return chars, last.astype(np.uint8).reshape(-1)


_QUADS, _LAST = _quad_tables()
_QUAD_ROW = np.arange(0, 40_000, 10_000)[:, None]


def _render(x, src, base) -> np.ndarray:
    """The repr of each cell of ``x`` followed by the separator in its
    source row, as bytes."""
    u = np.uint64
    bits = x.view(np.uint64)
    negative = (bits >> u(63)).astype(np.int64)
    be = bits >> u(52) & u(2047)
    t = bits & u((1 << 52) - 1)
    f, e10 = _decimal(be, t)

    n = np.searchsorted(_P10, f, side="right")  # f in [10**(n-1), 10**n)
    full = f * _P10[17 - n]  # 17 digits
    decpt = e10 + n
    hi = full // 10**8
    first = hi // 10**8
    quads = np.empty((2, 2, len(x)), dtype=np.int64)  # digits 1-16 by four
    eight = np.stack([hi - first * 10**8, full - hi * 10**8])
    quads[:, 0] = eight // 10**4
    quads[:, 1] = eight - quads[:, 0] * 10**4
    quads = quads.reshape(4, -1)
    ndig_1 = np.take(_LAST, quads + _QUAD_ROW).max(axis=0)

    exp = decpt - 1
    mag = np.abs(exp)
    src[:, 0] = first + 48
    src32 = src.view("<u4")
    src32[:, 1:5] = np.take(_QUADS, quads).T  # B-Q
    src32[:, 5] = np.take(_QUADS, mag)  # 0XYZ, as mag < 1000

    exponent_layout = 20 + 2 * (exp < 0) + (mag >= 100)
    layout = np.where((decpt <= -4) | (decpt > 16), exponent_layout, decpt + 3)
    cls = (layout * 17 + ndig_1) * 2 + negative
    special = (be == 2047) | (bits << u(1) == 0)
    if special.any():
        kind = np.where(be == 2047, np.where(t != 0, 4, 2), 0)
        cls = np.where(special, _SPECIAL + kind + negative, cls)

    # only as many template columns as the chunk's widest cell needs
    width = int(np.take(_TEMPLATE_WIDTH, cls).max())
    idx = np.take(_TEMPLATES[:, :width], cls, axis=0)
    idx += base
    out = np.take(src.reshape(-1), idx)
    return out[out != 0]


def repr_table(rows: np.ndarray, head: str = "") -> str:
    """``head`` followed by the CSV body of a 2-D float table: each cell's
    repr, ',' between the cells of a row and '\\n' after each row.

    The head's UTF-8 bytes go into the same buffer as the body's, so the
    text is decoded once and never copied to be joined."""
    rows = np.asarray(rows, dtype=np.float64)
    _, n_cols = rows.shape
    cells = rows.reshape(-1)
    block = max(1, _CHUNK_CELLS // n_cols) * n_cols  # whole rows
    n = min(block, cells.size)
    row = np.frombuffer(_SOURCE.replace(" ", "\0").encode() + b"\0", np.uint8)
    src = np.tile(row, (n, 1))  # 32 bytes a row, so that the quads align
    separators = np.frombuffer(b"," * (n_cols - 1) + b"\n", np.uint8)
    src[:, _SOURCE.index(",")] = np.resize(separators, n)
    base = (np.arange(n, dtype=np.int32) * src.shape[1])[:, None]
    head_bytes = head.encode()
    end = len(head_bytes)
    text = np.empty(end + cells.size * _WIDTH, np.uint8)
    text[:end] = np.frombuffer(head_bytes, np.uint8)
    for start in range(0, cells.size, block):
        x = cells[start : start + block]
        chars = _render(x, src[: len(x)], base[: len(x)])
        text[end : end + len(chars)] = chars
        end += len(chars)
    return str(memoryview(text)[:end], "utf-8")
