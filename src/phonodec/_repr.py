"""CSV text of a float64 table whose every cell is the cell's ``repr``.

``write_table(file, columns)`` writes the UTF-8 bytes of
``"".join(",".join(map(repr, row)) + "\\n" for row in rows)``, where
``rows = zip(*(column.tolist() for column in columns))``, computed in numpy
over chunks of about 8 K cells.  Each chunk is written to the file as soon
as it is rendered.  Every array a chunk works in lives in one working set,
``_Work``, allocated once per table and written with ``out=``; the last,
shorter chunk uses the leading part of each array.  So a table's working
memory is that of one chunk, and a chunk allocates only the bytes it
returns: no chunk frees memory that the next one must fault in again.

Digits.  Each finite nonzero cell's shortest round-trip decimal comes from
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020; the
steps of Java's ``DoubleToDecimal`` without its two-digit minimum for the
smallest subnormals), which rounds to odd the products of the significand
and its rounding interval's ends with a 126-bit power of ten.  Here one
exact product, in 28-bit limbs so that no uint64 sum overflows, gives the
middle one, and the ends add a per-exponent constant to it in 64-bit words.
Among the shortest decimals that read back as the cell it takes the one
closest to it, ties to even, as CPython's ``repr`` does; integers below
2**53 need no path of their own.  A chunk of normal doubles with nonzero
fractions (no subnormal, zero, power of two, inf or nan) takes the plain
path: its significands have 16 or 17 digits.

Characters.  Each cell writes its 17 digits (zero-padded on the right), its
exponent and its constant characters into a 32-byte source row as four
words.  One gather through a per-layout template of source offsets puts
Python's layout in place: positional for -4 < decpt <= 16 (``.0`` on
integers), else ``d.ddde±XX``.  The templates pad with the row's zero byte,
which a boolean mask drops; every other cell's template is right-aligned,
so that the kept bytes form one run per pair of cells.  The gather's index
is 32 * cell + offset: its upper bytes are set once per table, and each
chunk writes its low byte, from the templates repeated for the eight cells
of a 256-byte stretch.
"""

from __future__ import annotations

import numpy as np

_CHUNK_CELLS = 8192
_U = np.uint64
_M28 = _U((1 << 28) - 1)
_M63 = _U((1 << 63) - 1)


def _floor_log2_pow10(e):
    return (e * 913124641741) >> 38


def _powers_of_ten(e_min: int, e_max: int) -> np.ndarray:
    """Per e from e_min < 0 to e_max, floor(10**e * 2**(125 - floor(log2
    10**e))) + 1, in [2**125, 2**126), as its low and high words."""
    g, quotient, power = [], 1 << 1400, 1
    for e in range(-1, e_min - 1, -1):
        quotient //= 10  # floor(2**1400 / 10**-e)
        g.append((quotient >> (1275 + _floor_log2_pow10(e))) + 1)
    g.reverse()
    for e in range(e_max + 1):
        shift = 125 - _floor_log2_pow10(e)
        g.append((power << shift if shift >= 0 else power >> -shift) + 1)
        power *= 10
    words = b"".join(x.to_bytes(16, "little") for x in g)
    return np.frombuffer(words, "<u8").astype(np.uint64).reshape(-1, 2)


def _row_tables():
    """Per row, the biased exponent plus 2048 where the fraction is zero: T =
    g(-k) << (h + 2) for Schubfach's decimal exponent k and shift h, as five
    28-bit limbs and its low word, so that T c is the middle product for the
    significand c; k + 17 + _DECPT0; and what the lower and the upper end of
    the rounding interval add to T c, -T/2 (-T/4 below a power of two) and
    T/2 mod 2**192, each as its bits 0-63, 64-126 and 127-190 in turn."""
    row = np.arange(4096)
    be = row & 2047
    irregular = row >= 2050  # a power of two, whose lower neighbour is closer
    q = np.maximum(be, 1) - 1075
    k = (q * 661971961083 - 274743187321 * irregular) >> 41
    h = (q + _floor_log2_pow10(-k) + 4).astype(np.uint64)
    lo, hi = _powers_of_ten(int(-k.max()), int(-k.min()))[-k + int(k.max())].T
    u64 = _U(64)
    t0, t1, t2 = lo << h, hi << h | lo >> (u64 - h), hi >> (u64 - h)

    def end(upper: bool):
        s = (1 + (irregular & ~upper)).astype(np.uint64)
        x0, x1, x2 = t0 >> s | t1 << (u64 - s), t1 >> s | t2 << (u64 - s), t2 >> s
        if not upper:  # negated, ~x + 1 across the three words
            x0, x1, x2 = ~x0 + _U(1), ~x1 + (x0 == 0), ~x2 + ((x0 == 0) & (x1 == 0))
        return x0, x1 & _M63, x1 >> _U(63) | x2 << _U(1)

    limbs = [t0, t0 >> _U(28), t0 >> _U(56) | t1 << _U(8), t1 >> _U(20)]
    limbs = [x & _M28 for x in limbs] + [t1 >> _U(48) | t2 << _U(16)]
    decpt = (k - k.min() + 17).astype(np.uint64)
    ends = [word for pair in zip(end(False), end(True)) for word in pair]
    return np.stack(limbs + [t0, decpt] + ends), int(k.min())


_ROW, _K_MIN = _row_tables()
_DECPT0 = -_K_MIN  # decpt + _DECPT0 indexes the decpt tables; decpt > k

# A cell's source row: B-Q are its digits 2-17, e + X Y Z its exponent's
# 'e', sign and three digits, A its first digit, ',' its separator and ' '
# the zero byte; the other characters stand for themselves.
_SOURCE = "BCDEFGHIJKLMNOPQe+XYZinfA-.0a, "
_WIDTH = 25  # the longest repr, '-2.2250738585072014e-308', and a separator
_N_LAYOUT = 22  # positional with decpt -3..16, then e+XX and e+XXX
_SPECIAL = _N_LAYOUT * 17 * 2  # then 0.0, -0.0, inf, -inf, nan, nan


def _pattern(layout: int, ndig: int) -> str:
    digits = "ABCDEFGHIJKLMNOPQ"[:ndig]
    if layout >= 20:
        point = "." + digits[1:] if ndig > 1 else ""
        return digits[0] + point + "e+" + "XYZ"[21 - layout :]
    decpt = layout - 3
    if decpt <= 0:
        return "0." + "0" * -decpt + digits
    if decpt < ndig:
        return digits[:decpt] + "." + digits[decpt:]
    return digits + "0" * (decpt - ndig) + ".0"


def _templates() -> np.ndarray:
    """The source offsets of each class, (layout * 17 + ndig - 1) * 2 + the
    sign bit, then of the special values, padded with the zero byte to
    ``_WIDTH``; eight times over, the r-th time plus 32 r and, for even r,
    right-aligned."""
    unsigned = (_pattern(layout, ndig) + "," for layout in range(_N_LAYOUT) for ndig in range(1, 18))
    patterns = [sign + pattern for pattern in unsigned for sign in ("", "-")]
    patterns += ["0.0,", "-0.0,", "inf,", "-inf,", "nan,", "nan,"]
    to_offset = bytes.maketrans(_SOURCE.encode(), bytes(range(len(_SOURCE))))
    left, right = (
        np.frombuffer("".join(pad(p, _WIDTH) for p in patterns).encode().translate(to_offset), "u1")
        for pad in (str.ljust, str.rjust)
    )
    copies = [(left, right)[r % 2 == 0] + 32 * r for r in range(8)]
    return np.concatenate(copies).reshape(-1, _WIDTH)


_TEMPLATES = _templates()
_N_CLASS = len(_TEMPLATES) // 8


def _decpt_tables():
    """Per decpt + _DECPT0: the class of its layout (ndig 1, positive) and
    the source row's third word, 'e', the exponent's sign and its three
    digits, then 'inf'."""
    decpt = np.arange(_DECPT0 + 400) - _DECPT0
    exp = decpt - 1
    mag = np.abs(exp)
    layout = np.where((decpt > -4) & (decpt <= 16), decpt + 3, 20 + (mag >= 100))
    chars = [ord("e"), np.where(exp < 0, ord("-"), ord("+"))]
    chars += [48 + mag // 100, 48 + mag // 10 % 10, 48 + mag % 10, *b"inf"]
    word = sum(np.asarray(ch, np.uint64) << _U(8 * i) for i, ch in enumerate(chars))
    return (34 * layout).astype(np.intp), word


_LAYOUT, _EXPONENT = _decpt_tables()


def _digit_tables():
    """Per quad j (digits 4j + 2 to 4j + 5) of 0-9999: its four digit
    characters, and above them 2 (ndig - 1) if it is the last quad that is
    not zero."""
    chars = np.empty((10,) * 4 + (4,), np.uint8)
    used = np.zeros((10,) * 4, np.uint64)  # to the last nonzero digit
    for i in range(4):  # thousands first
        digit = np.arange(10).reshape((-1,) + (1,) * (3 - i))
        chars[..., i] = 48 + digit
        np.maximum(used, (digit > 0) * _U(i + 1), out=used)
    used = used.reshape(-1)
    last = (2 * used + 8 * np.arange(4, dtype=np.uint64)[:, None]) * (used > 0)
    return chars.view("<u4").reshape(-1).astype(np.uint64) | last << _U(32)


_QUADS = _digit_tables()
_P10 = 10 ** np.arange(18, dtype=np.int64)
_PAD10 = (10 ** (17 - np.minimum(np.arange(19), 17))).astype(np.uint64)  # 10**(17 - ndig)
_SPECIAL_ROW = np.full(4096, -1, np.intp)
_SPECIAL_ROW[[2048, 4095, 2047]] = _SPECIAL + np.arange(0, 6, 2)  # zero, inf, nan


class _Work:
    """Every array that a chunk of ``n_rows`` rows works in, allocated once
    per table: the chunk's rows, 23 uint64 and 7 boolean rows of working
    space, the source rows, and the gather's index, output and mask."""

    def __init__(self, n_rows: int, n_cols: int) -> None:
        n = n_rows * n_cols
        self.rows = np.empty((n_rows, n_cols))
        self.u = np.empty((23, n), np.uint64)
        self.b = np.empty((7, n), bool)
        self.src = np.empty((n, 32), np.uint8)
        self.tpl = np.empty((n, _WIDTH), np.uint8)
        self.chars = np.empty((n, _WIDTH), np.uint8)
        self.keep = np.empty((n, _WIDTH), bool)

        cell = np.arange(n)
        self.index = np.repeat(32 * cell, _WIDTH).reshape(n, _WIDTH)
        low = 0 if np.little_endian else 7
        self.index_low = self.index.view(np.uint8).reshape(n, _WIDTH, 8)[:, :, low]
        self.cycle = _N_CLASS * (cell % 8)  # the templates of a cell's low byte
        # the source row's fourth word less its first digit
        separators = np.frombuffer(b"," * (n_cols - 1) + b"\n", np.uint8)
        constant = int.from_bytes(b"0-.0a\0\0\0", "little")
        self.tail = np.resize(separators, n).astype(np.uint64) << _U(40) | _U(constant)

    def head(self, n: int) -> _Work:
        """The same arrays cut to their first ``n`` cells."""
        part = object.__new__(_Work)
        for name, array in vars(self).items():
            if name != "rows":  # which write_table cuts by rows
                setattr(part, name, array[:, :n] if name in ("u", "b") else array[:n])
        return part


def _render(x, work: _Work) -> np.ndarray:
    """The repr of each cell of ``x`` followed by its separator, as bytes."""
    u, b = work.u, work.b
    bits = x.view(np.uint64)

    be, t, row, c = u[:4]
    np.right_shift(bits, 52, out=be)
    be &= 2047
    np.bitwise_and(bits, (1 << 52) - 1, out=t)
    np.subtract(t, 1, out=row)  # row = be + 2048 where t == 0
    row >>= 52
    row &= 2048
    row |= be
    plain = 1 <= row.min() and row.max() <= 2046
    if plain:
        np.bitwise_or(t, 1 << 52, out=c)
    else:
        np.add(be, (1 << 52) - 1, out=c)
        c &= 1 << 52
        c |= t

    # the row's constants; every index into a table here is in range
    table = u[4:17]
    np.take(_ROW, row.view(np.intp), axis=1, mode="wrap", out=table)
    t0, t1, t2, t3, t4, w0, kd = table[:7]
    kd = kd.view(np.intp)

    # the middle product T c in words: w0 below bit 64, w1 to bit 127, w2
    c0, c1, acc, w1, w2, p = u[17:23]
    np.bitwise_and(c, _M28, out=c0)
    np.right_shift(c, 28, out=c1)
    np.multiply(t0, c0, out=acc)
    acc >>= 28
    t0 *= c1
    acc += t0
    acc += np.multiply(t1, c0, out=p)
    acc >>= 28
    t1 *= c1
    acc += t1
    acc += np.multiply(t2, c0, out=p)
    np.right_shift(acc, 8, out=w1)
    w1 &= (1 << 20) - 1
    acc >>= 28
    t2 *= c1
    acc += t2
    acc += np.multiply(t3, c0, out=p)
    np.bitwise_and(acc, _M28, out=p)
    p <<= 20
    w1 |= p
    acc >>= 28
    t3 *= c1
    acc += t3
    acc += np.multiply(t4, c0, out=p)
    np.bitwise_and(acc, 0x7FFF, out=p)
    p <<= 48
    w1 |= p
    np.right_shift(acc, 15, out=w2)
    t4 *= c1
    t4 <<= 13
    w2 += t4
    w0 *= c

    # rounded to odd (the last bit set when bits 64-126 are not all zero):
    # the middle, and the lower and upper end from their own sums, which
    # exclude themselves for an odd significand
    odd, vb, carry, m, ends = t1, t2, table[7:9], table[9:11], table[11:13]
    np.bitwise_and(c, 1, out=odd)
    np.minimum(w1, 1, out=vb)
    vb |= w2
    carry += w0
    np.less(carry, w0, out=carry)
    m += w1
    m += carry
    ends += w2
    ends += np.right_shift(m, 63, out=carry)
    m &= _M63
    ends |= np.minimum(m, 1, out=m)
    lower, upper = ends
    lower += odd
    upper -= odd

    # Schubfach's choice; f 10**k, with one digit more than needed where a
    # multiple of ten is shortest
    s, tens, f, x4 = c0, c1, w0, w1
    wp_in, up_in, shorter, u_in, w_in, tie, up = b
    np.right_shift(vb, 2, out=s)
    np.floor_divide(s, 10, out=tens)
    tens *= 40
    np.add(tens, 40, out=x4)
    np.less_equal(x4, upper, out=wp_in)
    np.less_equal(lower, tens, out=up_in)
    np.not_equal(up_in, wp_in, out=shorter)
    if not plain:
        shorter &= np.greater_equal(s, 10, out=up_in)
    np.bitwise_and(vb, (1 << 64) - 4, out=x4)
    np.less_equal(lower, x4, out=u_in)
    x4 += 4
    np.less_equal(x4, upper, out=w_in)
    np.bitwise_and(vb, 3, out=x4)
    x4 += np.bitwise_and(s, 1, out=acc)
    np.greater(x4, 2, out=tie)  # closer to s + 1, or as close and s odd
    np.greater(w_in, u_in, out=up)  # only s + 1 is in the interval
    tie &= np.equal(u_in, w_in, out=u_in)
    up |= tie
    np.add(s, up, out=f)
    tens >>= 2
    tens += np.multiply(wp_in, _U(10), out=acc)
    tens -= f
    tens *= shorter
    f += tens

    # the 17 digits f 10**(17 - ndig) and decpt = k + ndig
    if plain:
        small = b[0]
        np.less(f, 10**16, out=small)
        np.multiply(f, small, out=acc)
        acc *= 9
        f += acc
        kd -= small
    else:
        ndig = np.searchsorted(_P10, f.view(np.int64), side="right")
        f *= np.take(_PAD10, ndig, mode="wrap", out=acc)
        kd += ndig
        kd -= 17
    hi, first, eight, quads = t0, t3, table[7:9], table[9:13].reshape(2, 2, -1)
    np.floor_divide(f, 10**8, out=hi)
    np.floor_divide(hi, 10**8, out=first)
    np.multiply(hi, 10**8, out=acc)
    np.subtract(f, acc, out=eight[1])
    np.multiply(first, 10**8, out=acc)
    np.subtract(hi, acc, out=eight[0])
    high, low = quads[:, 0], quads[:, 1]
    np.floor_divide(eight, 10**4, out=high)
    np.multiply(high, 10**4, out=low)
    np.subtract(eight, low, out=low)
    quads = quads.reshape(4, -1).view(np.intp)

    # the source rows: digits B-I, J-Q, the exponent, then A and constants
    src = work.src.view("<u8")
    chars, ndig = u[17:21], u[21]
    for j in range(4):
        np.take(_QUADS[j], quads[j], mode="wrap", out=chars[j])
    np.maximum(chars[0], chars[1], out=ndig)
    np.maximum(ndig, chars[2], out=ndig)
    np.maximum(ndig, chars[3], out=ndig)
    ndig >>= 32  # 2 (ndig - 1)
    chars[::2] &= (1 << 32) - 1
    chars[1::2] <<= 32
    np.bitwise_or(chars[0], chars[1], out=src[:, 0])
    np.bitwise_or(chars[2], chars[3], out=src[:, 1])
    np.copyto(src[:, 2], np.take(_EXPONENT, kd, mode="wrap", out=chars[0]))
    np.add(work.tail, first, out=src[:, 3])

    # the class: layout, ndig and sign, or a special value's
    cls = u[22].view(np.intp)
    np.take(_LAYOUT, kd, mode="wrap", out=cls)
    cls += ndig.view(np.intp)
    negative = np.right_shift(bits, 63, out=t4).view(np.intp)
    cls += negative
    if not plain:
        special = t0.view(np.intp)
        np.take(_SPECIAL_ROW, row.view(np.intp), mode="wrap", out=special)
        is_special = np.greater_equal(special, 0, out=b[0])
        special += negative
        np.copyto(cls, special, where=is_special)

    cls += work.cycle
    np.take(_TEMPLATES, cls, axis=0, mode="wrap", out=work.tpl)
    np.copyto(work.index_low, work.tpl)
    np.take(work.src.reshape(-1), work.index, mode="wrap", out=work.chars)
    return work.chars[np.not_equal(work.chars, 0, out=work.keep)]


def write_table(file, columns) -> None:
    """Write the CSV body of a float table, given as equal-length 1-D
    columns, to the binary ``file``: each cell's repr, ',' between the cells
    of a row and '\\n' after each row.

    Each chunk of rows is gathered from the columns into the working set and
    its bytes are written as soon as they are rendered, so the table is
    never copied whole and its text never held whole."""
    n_cols, n_rows = len(columns), len(columns[0])
    if n_rows == 0:
        return
    block = max(1, _CHUNK_CELLS // n_cols)  # rows a chunk
    work = _Work(min(block, n_rows), n_cols)
    for start in range(0, n_rows, block):
        rows = work.rows[: min(block, n_rows - start)]
        for j, column in enumerate(columns):
            rows[:, j] = column[start : start + len(rows)]
        part = work if len(rows) == len(work.rows) else work.head(rows.size)
        file.write(_render(rows.reshape(-1), part))
