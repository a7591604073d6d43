"""CSV text of a float64 table whose every cell is the cell's ``repr``.

``write_table(file, columns)`` writes the UTF-8 bytes of
``"".join(",".join(map(repr, row)) + "\\n" for row in rows)``, where
``rows = zip(*(column.tolist() for column in columns))``, computed in numpy
over chunks of about 8 K cells.  Each chunk is written to
the file as soon as it is rendered, and every chunk reuses one set of
scratch arrays, so a table's working memory is that of one chunk.

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


def _rop(g, cp, work):
    """floor(g * cp / 2**127), with its last bit set when bits 64-126 of the
    product are not all zero (round to odd, on the bits that Giulietti's
    implementation reads), into ``work.acc``.

    ``g`` is five 28-bit limbs of shape (n,) and ``cp`` below 2**56 of shape
    (3, n), so that no column sum reaches 2**58; ``cp`` is overwritten.  The
    table's g exceeds the power of ten by less than 2**5, so the product
    exceeds the exact one by less than 2**61: bits 64-126 stay zero where the
    exact quotient is an integer, and the paper bounds any other fraction
    away from 0 and 1 by more than that.
    """
    q0, q1, acc, sticky = work.q0, work.q1, work.acc, work.sticky
    s28 = np.uint64(28)
    np.bitwise_and(cp, _M28, out=q0)
    np.right_shift(cp, s28, out=q1)
    product = cp
    g0, g1, g2, g3, g4 = g
    np.multiply(g0, q0, out=acc)
    acc >>= s28
    acc += np.multiply(g1, q0, out=product)
    acc += np.multiply(g0, q1, out=product)
    acc >>= s28
    acc += np.multiply(g2, q0, out=product)
    acc += np.multiply(g1, q1, out=product)
    np.right_shift(acc, np.uint64(8), out=sticky)
    sticky &= np.uint64((1 << 20) - 1)
    acc >>= s28
    acc += np.multiply(g3, q0, out=product)
    acc += np.multiply(g2, q1, out=product)
    sticky |= np.bitwise_and(acc, _M28, out=product)
    acc >>= s28
    acc += np.multiply(g4, q0, out=product)
    acc += np.multiply(g3, q1, out=product)  # bit 112 up, less g4 * q1
    sticky |= np.bitwise_and(acc, np.uint64(0x7FFF), out=product)
    acc >>= np.uint64(15)
    np.multiply(g4, q1, out=product)
    product <<= np.uint64(13)
    acc += product
    acc |= np.minimum(sticky, np.uint64(1), out=sticky)
    return acc


def _decimal(be, t, work):
    """(f, e10): f * 10**e10 is the shortest decimal that reads back as the
    finite nonzero double of biased exponent ``be`` and fraction ``t``.
    Other cells give some f below 10**17."""
    u = np.uint64
    c, row, cp, e10 = work.c, work.g_row, work.cp, work.e10
    up_in, wp_in, u_in, w_in, round_up = work.flags
    irregular = up_in  # until the digits below
    np.minimum(be, u(1), out=c)
    c <<= u(52)
    c |= t
    np.equal(t, 0, out=irregular)
    irregular &= np.greater(be, 1, out=wp_in)
    np.maximum(be, u(1), out=row, casting="unsafe")
    np.add(row, 2048, out=row, where=irregular)
    np.left_shift(c, u(2), out=cp[1])
    np.subtract(cp[1], u(2), out=cp[0])
    cp[0] += irregular
    np.add(cp[1], u(2), out=cp[2])
    np.take(_G, row, axis=1, out=work.g, mode="clip")
    lower, vb, upper = _rop(work.g, cp, work)

    s, sp, tmp = cp  # free after _rop
    odd = c  # an even significand's interval includes its ends
    odd &= u(1)
    lower += odd
    upper -= odd
    np.right_shift(vb, u(2), out=s)
    np.floor_divide(s, u(10), out=sp)
    np.multiply(sp, u(40), out=tmp)
    np.less_equal(lower, tmp, out=up_in)
    tmp += u(40)
    np.less_equal(tmp, upper, out=wp_in)
    shorter = up_in
    shorter ^= wp_in
    shorter &= np.greater_equal(s, 10, out=u_in)
    np.bitwise_and(vb, ~u(3), out=tmp)
    np.less_equal(lower, tmp, out=u_in)
    tmp += u(4)
    np.less_equal(tmp, upper, out=w_in)
    np.bitwise_and(vb, u(3), out=tmp)
    tmp += np.bitwise_and(s, u(1), out=vb)
    np.greater(tmp, 2, out=round_up)
    u_in ^= w_in
    np.copyto(round_up, w_in, where=u_in)
    s += round_up
    sp += wp_in
    np.copyto(s, sp, where=shorter)
    np.take(_K, row, out=e10, mode="clip")
    e10 += shorter
    return s.view(np.int64), e10


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


class _Scratch:
    """The arrays of a chunk of ``n_rows`` rows, allocated once per table
    and reused through ``out=`` by every chunk of that length.

    Allocated per chunk, the larger ones (the (3, n) products, the gather's
    (n, width) indices) sit above glibc's mmap threshold, and every chunk
    would map and unmap them again."""

    def __init__(self, n_rows: int, n_cols: int) -> None:
        n = n_rows * n_cols
        self.rows = np.empty((n_rows, n_cols))

        def new(dtype, *shape):
            return np.empty((*shape, n), dtype)

        self.be, self.t, self.c, self.negative = new(np.uint64, 4)
        self.g_row, self.e10, self.full, self.hi, self.first, self.exp, self.mag, self.cls = (
            new(np.intp, 8)
        )
        self.flags = new(bool, 5)
        self.cp, self.q0, self.q1, self.acc, self.sticky = new(np.uint64, 5, 3)
        self.g = new(np.uint64, 5)
        self.eight = new(np.int64, 2)
        self.quads = new(np.int64, 2, 2)
        self.quad_rows = new(np.int64, 4)
        self.last = new(np.uint8, 4)
        self.ndig_1 = new(np.uint8)
        self.quad_chars = new(np.uint32, 4)
        self.exp_chars = new(np.uint32)
        self.width = new(np.int8)
        self.idx = np.empty(n * _WIDTH, np.int32)
        self.chars = np.empty(n * _WIDTH, np.uint8)
        self.keep = np.empty(n * _WIDTH, bool)
        self.templates: dict[int, np.ndarray] = {}

        # the source rows: 32 bytes each, so that the quads align
        source_row = np.frombuffer(_SOURCE.replace(" ", "\0").encode() + b"\0", np.uint8)
        self.src = np.tile(source_row, (n, 1))
        separators = np.frombuffer(b"," * (n_cols - 1) + b"\n", np.uint8)
        self.src[:, _SOURCE.index(",")] = np.resize(separators, n)
        self.base = (np.arange(n, dtype=np.int32) * self.src.shape[1])[:, None]

    def templates_of_width(self, width: int) -> np.ndarray:
        """The first ``width`` columns of the templates, contiguous, so that
        ``np.take`` along rows copies nothing first."""
        if width not in self.templates:
            self.templates[width] = np.ascontiguousarray(_TEMPLATES[:, :width])
        return self.templates[width]


def _render(x, work: _Scratch) -> np.ndarray:
    """The repr of each cell of ``x`` followed by the separator in its
    source row, as bytes."""
    u = np.uint64
    bits = x.view(np.uint64)
    be, t, negative = work.be, work.t, work.negative
    np.right_shift(bits, u(52), out=be)
    be &= u(2047)
    np.bitwise_and(bits, u((1 << 52) - 1), out=t)
    np.right_shift(bits, u(63), out=negative)
    negative = negative.view(np.int64)
    f, decpt = _decimal(be, t, work)

    n = np.searchsorted(_P10, f, side="right")  # f in [10**(n-1), 10**n)
    full, hi, first = work.full, work.hi, work.first
    np.take(_P10[::-1], n, out=full, mode="clip")
    full *= f  # 17 digits
    decpt += n
    np.floor_divide(full, 10**8, out=hi)
    np.floor_divide(hi, 10**8, out=first)
    eight, quads = work.eight, work.quads  # digits 2-17 by eight, then by four
    np.subtract(hi, np.multiply(first, 10**8, out=eight[0]), out=eight[0])
    np.subtract(full, np.multiply(hi, 10**8, out=eight[1]), out=eight[1])
    np.floor_divide(eight, 10**4, out=quads[:, 0])
    np.subtract(eight, np.multiply(quads[:, 0], 10**4, out=quads[:, 1]), out=quads[:, 1])
    quads = quads.reshape(4, -1)
    np.add(quads, _QUAD_ROW, out=work.quad_rows)
    np.take(_LAST, work.quad_rows, out=work.last, mode="clip")
    ndig_1 = np.max(work.last, axis=0, out=work.ndig_1)

    exp, mag = work.exp, work.mag
    np.subtract(decpt, 1, out=exp)
    np.abs(exp, out=mag)
    src = work.src
    np.add(first, 48, out=src[:, 0], casting="unsafe")
    src32 = src.view("<u4")
    src32[:, 1:5] = np.take(_QUADS, quads, out=work.quad_chars, mode="clip").T  # B-Q
    src32[:, 5] = np.take(_QUADS, mag, out=work.exp_chars, mode="clip")  # 0XYZ, as mag < 1000

    # layout: positional, or 20 + 2 * (exp < 0) + (mag >= 100) in exponent form
    cls, exponent_form, flag = work.cls, work.flags[0], work.flags[1]
    np.add(decpt, 3, out=cls)
    np.less_equal(decpt, -4, out=exponent_form)
    exponent_form |= np.greater(decpt, 16, out=flag)
    np.multiply(np.less(exp, 0, out=flag), 2, out=exp)
    exp += np.greater_equal(mag, 100, out=flag)
    exp += 20
    np.copyto(cls, exp, where=exponent_form)
    cls *= 17
    cls += ndig_1
    cls *= 2
    cls += negative
    special = np.equal(be, 2047, out=work.flags[0])
    special |= np.equal(np.left_shift(bits, u(1), out=t), 0, out=flag)
    if special.any():
        kind = np.where(be == 2047, np.where(bits << u(12) != 0, 4, 2), 0)
        np.copyto(cls, _SPECIAL + kind + negative, where=special)

    # only as many template columns as the chunk's widest cell needs
    width = int(np.take(_TEMPLATE_WIDTH, cls, out=work.width, mode="clip").max())
    shape = (len(x), width)
    idx = work.idx[: len(x) * width].reshape(shape)
    np.take(work.templates_of_width(width), cls, axis=0, out=idx, mode="clip")
    idx += work.base
    chars = work.chars[: idx.size].reshape(shape)
    np.take(src.reshape(-1), idx, out=chars, mode="clip")
    keep = np.not_equal(chars, 0, out=work.keep[: idx.size].reshape(shape))
    return chars[keep]


def write_table(file, columns) -> None:
    """Write the CSV body of a float table, given as equal-length 1-D
    columns, to the binary ``file``: each cell's repr, ',' between the cells
    of a row and '\\n' after each row.

    Each chunk of rows is gathered from the columns into the scratch set and
    its bytes are written as soon as they are rendered, so the table is
    never copied whole and its text never held whole."""
    n_cols, n_rows = len(columns), len(columns[0])
    block = max(1, _CHUNK_CELLS // n_cols)  # rows a chunk
    work = None
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        if work is None or len(work.rows) != stop - start:  # the first and the last chunk
            del work  # so that the last chunk's set replaces the first's
            work = _Scratch(stop - start, n_cols)
        for j, column in enumerate(columns):
            work.rows[:, j] = column[start:stop]
        file.write(_render(work.rows.reshape(-1), work))
