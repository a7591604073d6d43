"""The float-table renderer against Python's repr, cell for cell."""

import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phonodec
from phonodec._repr import _CHUNK_CELLS, write_table
from phonodec.runs import Run, to_csv

# the source tree under test, for a child interpreter
SRC = str(Path(phonodec.__file__).resolve().parent.parent)


def reference(table: np.ndarray) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


def repr_table(table: np.ndarray) -> str:
    """What the kernel writes for a 2-D table, as text."""
    file = io.BytesIO()
    write_table(file, table.T)
    return file.getvalue().decode()


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
    # a large table's head goes to the file ahead of the kernel's chunks
    table = np.arange(2.0 * _CHUNK_CELLS).reshape(-1, 2) / 7.0
    run = Run(header={"flags": "ω ≥ 1e3 rad/s"}, columns=("t_s", "mu"), rows=tuple(table.T))
    assert to_csv(run) == "# flags = ω ≥ 1e3 rad/s\nt_s,mu\n" + reference(table)
    assert repr_table(np.empty((0, 2))) == ""


NORMAL = st.floats(1e-300, 1e300).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=30, deadline=None)
@given(
    n_cols=st.integers(1, 7),
    normals=st.lists(NORMAL, min_size=1, max_size=20),
    subnormal=st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308).filter(
        lambda x: x != 0.0 and abs(x) < 2.2250738585072014e-308
    ),
    cells=st.lists(st.floats(), min_size=1, max_size=40),
    extra_rows=st.integers(-50, 50),
)
def test_write_table_equals_repr_across_chunks(n_cols, normals, subnormal, cells, extra_rows):
    # the first chunk holds only normal doubles whose significands have 15,
    # 16 and 17 digits, the second the same but for one subnormal, and the
    # rest any float: nan, +-inf, +-0.0, subnormals; rows cross the chunks
    chunk = _CHUNK_CELLS // n_cols * n_cols
    plain = [float(f"{x:.{digits - 1}e}") for x in normals for digits in (15, 16, 17)]
    first = np.resize(plain, chunk)
    second = np.resize(plain[::-1], chunk)
    second[len(second) // 2] = subnormal
    n_rows = 3 * chunk // n_cols + extra_rows
    table = np.concatenate([first, second, np.resize(cells, chunk + 50 * n_cols)])
    table = table[: n_rows * n_cols].reshape(n_rows, n_cols)
    assert repr_table(table) == reference(table)


def test_a_large_table_faults_its_working_set_in_once(tmp_path):
    # a 100 000-point fig1 trajectory written as the CLI writes it, in a fresh
    # interpreter: with arrays allocated chunk by chunk, the allocator handed
    # the freed ones back to the kernel and each chunk faulted them in again,
    # about 42 000 minor page faults in all; the working set faults in once
    resource = pytest.importorskip("resource")
    if resource.getrusage(resource.RUSAGE_SELF).ru_minflt == 0:
        pytest.skip("this platform counts no minor page faults")
    script = (
        "import resource, sys\n"
        "from phonodec import config, runs\n"
        "run = runs.run_trajectory(config.preset_config('fig1', {'time_points': 100_000}))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "runs.write_csv(run, sys.argv[1])  # imports _repr, then calls write_table\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "t.csv")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert int(result.stdout) < 3000
