"""In-tree Padé-13 matrix exponential against scipy.linalg.expm."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

from phonodec._expm import expm


def oracle_generators(n_cut: int, gamma1: float, gamma2: float):
    """The real tridiagonal generator of each diagonal rho[j+k, j], k = 0..n_cut."""
    for k in range(n_cut + 1):
        j = np.arange(n_cut + 1 - k)
        level = j + 0.5 * k
        root = np.sqrt((j[:-1] + k + 1.0) * (j[:-1] + 1.0))
        yield (
            np.diag(-gamma1 * level - gamma2 * (level + 1.0))
            + np.diag(gamma1 * root, 1)
            + np.diag(gamma2 * root, -1)
        )


@pytest.mark.parametrize("n_cut", [40, 80])
@pytest.mark.parametrize("gamma1, gamma2", [(1.2, 0.2), (1.0, 0.0)])
# the verify grid, and the thermalization time, at which the largest
# 1-norms reach 1440-3990 and the result comes from nine or ten squarings
@pytest.mark.parametrize(
    "grid",
    [np.linspace(0.0, 5.0, 11), np.array([0.0, 18.0])],
    ids=["verify_grid", "thermalization"],
)
def test_oracle_generators_match_scipy(n_cut, gamma1, gamma2, grid):
    # One stack per diagonal, as the oracle exponentiates it.  The scale is
    # the stack's largest entry (the t = 0 identity): on the 2 x 2 top
    # diagonals, whose entries fall to ~1e-48, scipy itself is ~2e-12 off
    # the exact exponential relative to each matrix's own entries.
    for gen in oracle_generators(n_cut, gamma1, gamma2):
        stack = gen * grid[:, None, None]
        ours, ref = expm(stack), scipy_expm(stack)
        assert np.array_equal(ours[0], np.eye(gen.shape[0]))
        assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda n: st.lists(
            st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n
        ).map(lambda v: np.array(v).reshape(n, n))
    ),
    st.floats(0.0, 2.0),
)
def test_random_matrices_match_scipy(matrix, scale):
    a = scale * matrix
    ref = scipy_expm(a)
    assert np.abs(expm(a) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_zero_matrix_gives_identity_bit_for_bit():
    for n in (1, 2, 7, 41):
        out = expm(np.zeros((3, n, n)))
        assert out.tobytes() == np.broadcast_to(np.eye(n), (3, n, n)).tobytes()


def test_each_matrix_of_a_stack_is_scaled_on_its_own():
    gen = next(oracle_generators(20, 1.2, 0.2))
    grid = np.array([0.0, 0.01, 1.0, 18.0])
    stack = expm(gen * grid[:, None, None])
    for t, out in zip(grid, stack):
        assert np.array_equal(out, expm(gen * t))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite(bad):
    stack = np.zeros((3, 2, 2))
    stack[2, 0, 1] = bad
    with pytest.raises(ValueError):
        expm(stack)
