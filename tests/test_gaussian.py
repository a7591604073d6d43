"""Gaussian-state construction, Williamson parameter extraction, invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phonodec.gaussian import (
    KAPPA,
    OMEGA,
    VACUUM_VARIANCE,
    GaussianState,
    state_from_params,
)
from williamson import params_from_state, purity


def thermal(n: float) -> GaussianState:
    return state_from_params(1.0 / (1.0 + 2.0 * n), 0.0)


def test_convention_invariants():
    assert KAPPA == pytest.approx(1 / math.sqrt(2))
    assert VACUUM_VARIANCE == pytest.approx(0.5)
    assert np.array_equal(OMEGA, -OMEGA.T)
    assert np.array_equal(OMEGA @ OMEGA, -np.eye(2))
    with pytest.raises(ValueError):
        OMEGA[0, 1] = 2.0


def test_vacuum():
    v = thermal(0.0)
    assert np.allclose(v.sigma, 0.5 * np.eye(2))
    assert v.occupation == pytest.approx(0.0, abs=1e-15)
    assert purity(v) == pytest.approx(1.0, abs=1e-14)
    p = params_from_state(v)
    assert (p.mu, p.r, p.occupation) == pytest.approx((1.0, 0.0, 0.0))


def test_squeezed_vacuum_construction():
    st = state_from_params(1.0, 10.0, 0.0)
    assert st.sigma[0, 0] == pytest.approx(0.5 * math.exp(20.0), rel=1e-13)
    assert st.sigma[1, 1] == pytest.approx(0.5 * math.exp(-20.0), rel=1e-13)
    assert st.sigma[0, 1] == 0.0


def test_half_purity_state_is_unit_thermal():
    st = state_from_params(0.5, 0.0, 0.0)
    assert np.allclose(st.sigma, np.eye(2), atol=1e-14)
    assert st.occupation == pytest.approx(0.5, abs=1e-14)
    p = params_from_state(GaussianState(d=np.zeros(2), sigma=np.eye(2)))
    assert p.mu == pytest.approx(0.5, abs=1e-14)
    assert p.r == pytest.approx(0.0, abs=1e-14)
    assert p.occupation == pytest.approx(0.5, abs=1e-14)


def test_thermal_state_values():
    assert np.allclose(thermal(0.0).sigma, 0.5 * np.eye(2))
    assert np.allclose(thermal(1.0).sigma, 1.5 * np.eye(2))
    # N from beta = ln 2 is exactly one quantum
    n = 1.0 / (math.exp(math.log(2.0)) - 1.0)
    assert thermal(n).occupation == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        thermal(-0.1)  # purity 1.25


def test_round_trip_diagonal_grid():
    # full squeezing range on the diagonal (psi = 0) branch
    for mu in (0.1, 0.25, 0.5, 0.8, 1.0):
        for r in (0.0, 0.5, 1.0, 2.0, 5.0, 8.0, 12.0):
            p = params_from_state(state_from_params(mu, r, 0.0))
            assert p.mu == pytest.approx(mu, rel=1e-12)
            assert p.r == pytest.approx(r, rel=1e-12, abs=1e-12)


def test_round_trip_general_phase():
    for psi in np.linspace(0.0, 2 * math.pi, 13, endpoint=False):
        for r in (0.3, 1.3, 2.0):
            p = params_from_state(state_from_params(0.8, r, psi))
            assert p.mu == pytest.approx(0.8, rel=1e-12)
            assert p.r == pytest.approx(r, rel=1e-12)
            dpsi = abs(p.psi - psi) % (2 * math.pi)
            assert min(dpsi, 2 * math.pi - dpsi) < 1e-11


def test_round_trip_worked_example():
    p = params_from_state(state_from_params(0.8, 1.3, 2.1))
    assert p.mu == pytest.approx(0.8, rel=1e-12)
    assert p.r == pytest.approx(1.3, rel=1e-12)
    assert p.psi == pytest.approx(2.1, rel=1e-12)


def test_phase_tie_break_unsqueezed():
    p = params_from_state(state_from_params(0.7, 0.0, 1.234))
    assert p.psi == 0.0


def test_occupation_is_sinh_squared_for_pure_squeezed_vacuum():
    for r in (0.0, 0.5, 1.0, 2.0):
        st = state_from_params(1.0, r, 0.0)
        assert st.occupation == pytest.approx(math.sinh(r) ** 2, abs=1e-12)


def test_displacement_contributes_to_occupation():
    d = np.array([0.6, -0.8])
    st = state_from_params(1.0, 0.0, 0.0, d=d)
    k2 = KAPPA**2
    assert st.occupation == pytest.approx(k2 * (d @ d), abs=1e-14)


def test_purity_grid():
    # on the axes (psi = 0, pi) sigma is diagonal and det sigma is exact at
    # any squeezing; off the axes the rounded entries ~ cosh 2r leave det
    # sigma a relative error ~ cosh^2(2r) eps, so those phases stop at r = 2
    for mu in (0.1, 0.25, 0.5, 0.8, 1.0):
        for r in (0.0, 0.5, 1.0, 2.0, 5.0, 8.0, 12.0):
            for psi in (0.0, math.pi):
                assert purity(state_from_params(mu, r, psi)) == pytest.approx(mu, rel=1e-12)
        for r in (0.0, 0.5, 1.0, 2.0):
            for psi in (0.7, 0.5 * math.pi, 2.1, 4.0, 5.9):
                assert purity(state_from_params(mu, r, psi)) == pytest.approx(mu, rel=1e-12)


def test_symmetry_enforced_and_violations_rejected():
    with pytest.raises(ValueError):
        GaussianState(d=np.zeros(2), sigma=np.array([[1.0, 0.3], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        GaussianState(d=np.zeros(2), sigma=0.3 * np.eye(2))  # below vacuum
    with pytest.raises(ValueError):
        state_from_params(1.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        state_from_params(0.5, -1.0, 0.0)
    with pytest.raises(ValueError):
        state_from_params(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianState(d=np.zeros(4), sigma=np.eye(4))  # single mode only


def test_negative_definite_covariance_is_rejected():
    # det sigma = 1 clears the uncertainty bound; the diagonal does not
    with pytest.raises(ValueError, match="positive definite"):
        GaussianState(d=np.zeros(2), sigma=-np.eye(2))


def test_constructed_states_satisfy_bound():
    for mu in (0.1, 0.5, 1.0):
        for r in (0.0, 1.0, 6.0, 12.0):
            st = state_from_params(mu, r, 0.0)
            assert np.array_equal(st.sigma, st.sigma.T)
            s_min = math.sqrt(np.linalg.det(st.sigma))
            assert s_min >= 0.5 - 1e-12


def test_states_are_immutable():
    st = thermal(0.0)
    with pytest.raises((ValueError, RuntimeError)):
        st.sigma[0, 0] = 99.0


def numpy_validator(d, sigma):
    """Reference: ``GaussianState``'s checks as numpy reductions over the arrays.

    It pins the Python-float validator's accept/reject decisions, messages
    and stored bits.
    """
    d = np.atleast_1d(np.array(d, dtype=float))
    sigma = np.asarray(sigma, dtype=float)
    if d.shape != (2,):
        raise ValueError("displacement must be a real vector of length 2")
    if sigma.shape != (2, 2):
        raise ValueError("covariance must be a 2 x 2 matrix")
    if not np.all(np.isfinite(d)) or not np.all(np.isfinite(sigma)):
        raise ValueError("non-finite entries in state")
    scale = max(np.abs(sigma).max(), 1.0)
    if np.abs(sigma - sigma.T).max() > 1e-10 * scale:
        raise ValueError("covariance must be symmetric")
    sigma = 0.5 * sigma + 0.5 * sigma.T
    if sigma[0, 0] <= 0.0:
        raise ValueError("covariance must be positive definite")
    bound = VACUUM_VARIANCE
    det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] ** 2
    noise = 64.0 * np.finfo(float).eps * (
        abs(sigma[0, 0] * sigma[1, 1]) + sigma[0, 1] ** 2
    )
    if det < bound * bound * (1.0 - 2.0 * 1e-9) - noise:
        raise ValueError(
            f"uncertainty bound violated: det sigma = {det:.6e}"
            f" < {bound * bound:.6e}"
        )
    return d, sigma


@st.composite
def near_bound_states(draw):
    """(d, sigma) whose determinant sits on either side of the bound minus its
    noise floor, with asymmetry on either side of 1e-10 scale and, sometimes,
    a non-finite entry.  No product leaves the float range."""
    log_s00 = draw(st.floats(-70.0, 70.0))
    log_prod = draw(st.floats(-0.7, 70.0))  # s00 s11 >= 0.2
    s00, s11 = 10.0**log_s00, 10.0 ** (log_prod - log_s00)
    prod = s00 * s11
    floor = 0.25 * (1.0 - 2e-9) - 64.0 * np.finfo(float).eps * 2.0 * prod
    det = floor + draw(st.floats(-1.0, 1.0)) * max(256.0 * np.finfo(float).eps * prod, 1e-9)
    s01 = math.sqrt(max(prod - det, 0.0)) * draw(st.sampled_from([1.0, -1.0]))
    scale = max(s00, s11, abs(s01), 1.0)
    s10 = s01 + draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0))) * 1e-10 * scale
    if draw(st.booleans()):
        s00, s11 = -s00, -s11  # a negative definite covariance
    entries = [draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)), s00, s01, s10, s11]
    poisoned = draw(st.integers(0, 17))  # one draw in three has a non-finite entry
    if poisoned < 6:
        entries[poisoned] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return np.array(entries[:2]), np.array(entries[2:]).reshape(2, 2)


def outcome(build, d, sigma):
    try:
        return build(d, sigma), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None)
@given(near_bound_states())
# a vacuum: det exactly on the bound
@example((np.zeros(2), np.array([[0.5, 0.0], [0.0, 0.5]])))
# asymmetric by exactly 1e-10 of the scale, accepted
@example((np.zeros(2), np.array([[1.0, 0.0], [1e-10, 1.0]])))
# entries below 1: the asymmetry is measured against a scale of 1
@example((np.zeros(2), np.array([[0.6, 0.0], [8e-11, 0.6]])))
# subnormal off-diagonals: each half rounds to 0 before the sum
@example((np.zeros(2), np.array([[0.5, 5e-324], [5e-324, 0.5]])))
def test_state_validation_matches_the_numpy_reference(case):
    d, sigma = case
    got, error = outcome(lambda d, s: GaussianState(d=d, sigma=s), d, sigma)
    ref, ref_error = outcome(numpy_validator, d, sigma)
    assert error == ref_error
    if ref is not None:
        assert got.d.tobytes() == ref[0].tobytes()
        assert got.sigma.tobytes() == ref[1].tobytes()
        assert not got.d.flags.writeable and not got.sigma.flags.writeable


def test_a_determinant_out_of_float_range_is_an_arithmetic_error():
    # numpy's validator overflowed in det sigma; under errstate(over="raise"),
    # as config's initial-state check runs, that was a FloatingPointError
    for sigma in ([[1e200, 0.0], [0.0, 1e200]], [[1.0, 1e160], [1e160, 1.0]]):
        with pytest.raises(OverflowError):
            GaussianState(d=np.zeros(2), sigma=np.array(sigma))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            numpy_validator(np.zeros(2), np.array(sigma))
