"""Gaussian-state construction, Williamson parameter extraction, invariants."""

import math

import numpy as np
import pytest

from phonodec.gaussian import (
    KAPPA,
    OMEGA,
    VACUUM_VARIANCE,
    GaussianState,
    state_from_params,
)
from williamson import params_from_state


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
    assert v.purity == pytest.approx(1.0, abs=1e-14)
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
                assert state_from_params(mu, r, psi).purity == pytest.approx(mu, rel=1e-12)
        for r in (0.0, 0.5, 1.0, 2.0):
            for psi in (0.7, 0.5 * math.pi, 2.1, 4.0, 5.9):
                assert state_from_params(mu, r, psi).purity == pytest.approx(mu, rel=1e-12)


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
