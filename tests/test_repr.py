"""The float-table renderer against Python's repr, cell for cell."""

import math

import numpy as np

from phonodec._repr import _CHUNK_CELLS, repr_table


def reference(table: np.ndarray) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


def significant_digits(x: float) -> int:
    mantissa = repr(abs(x)).split("e")[0].replace(".", "")
    return len(mantissa.strip("0"))


def test_repr_table_equals_repr_in_bulk():
    rng = np.random.default_rng(20201)
    random_bits = rng.integers(0, 2**64, size=2**19, dtype=np.uint64).view(np.float64)
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near_2_53 = 2.0**53 + np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    # 1 to 15 digits of 1/3, then 16 (1/3 itself) and 17 (0.1 + 0.2)
    digit_counts = [float(f"{1 / 3:.{d - 1}e}") for d in range(1, 16)] + [1 / 3, 0.1 + 0.2]
    assert [significant_digits(x) for x in digit_counts] == list(range(1, 18))

    exact = np.concatenate([
        powers_of_two, -powers_of_two,
        powers_of_ten,
        np.nextafter(powers_of_ten, 0.0),
        np.nextafter(powers_of_ten, math.inf),
        near_2_53, digit_counts,
    ])
    # a row count that does not divide the chunk of whole rows
    rows = 2 * (_CHUNK_CELLS // 7) + 123
    tables = [
        random_bits.reshape(-1, 4),
        exact.reshape(-1, 1),
        rng.standard_normal((rows, 7)) * 10.0 ** rng.integers(-30, 30, (rows, 7)),
        np.empty((0, 5)),
    ]
    for table in tables:
        assert repr_table(table) == reference(table), table.shape


def test_chunks_of_different_widths():
    # the first chunk's cells all render as '1.0', the second holds the
    # longest repr, the third (shorter than a chunk) a width of its own
    assert _CHUNK_CELLS // 5 * 5 == 8190
    longest = -2.2250738585072014e-308
    cells = [1.0] * 8190 + [longest] * 5 + [1.0] * 8185 + [0.5, -0.0, 1e22, 1e-5, 7.0]
    table = np.array(cells).reshape(-1, 5)
    assert repr_table(table) == reference(table)
    assert repr_table(table[::-1]) == reference(table[::-1])


def test_head_precedes_the_table():
    head = "# flags = ω ≥ 1e3 rad/s\nt_s,mu\n"
    table = np.array([[0.0, 1.0], [2.5, -3e-300]])
    assert repr_table(table, head) == head + reference(table)
    assert repr_table(np.empty((0, 2)), head) == head
    assert repr_table(np.empty((0, 2))) == ""
