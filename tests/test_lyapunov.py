"""Channel construction, closed-form solution, numerical Lyapunov integration."""

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from phonodec.decoherence import metric_trajectory, purity_minimum_time
from phonodec.gaussian import KAPPA, OMEGA, state_from_params
from phonodec.lyapunov import (
    evolve_closed_form,
    evolve_numeric,
    fixed_point_residual,
    thermal_channel,
)
from williamson import params_from_state, purity

VACUUM = state_from_params(1.0, 0.0)


class DriftDiffusion(NamedTuple):
    """A constant drift A and diffusion D, all that ``evolve_numeric`` reads,
    for the channels that are not thermal."""

    a: np.ndarray
    d: np.ndarray


def channel_from_lindblad_ops(c_matrix: np.ndarray) -> DriftDiffusion:
    """Single-mode channel from jump operators c_i = C_ij x_j.

    D = Omega Re(C^dag C) Omega^T / (4 kappa^4)
    A = Omega Im(C^dag C) / (2 kappa^2)

    The free rotation is not included: add w' Omega to the drift for it.
    """
    c = np.atleast_2d(np.asarray(c_matrix, dtype=complex))
    if c.shape[1] != 2:
        raise ValueError("C must have two columns, one per quadrature")
    gram = c.conj().T @ c
    kappa2 = KAPPA**2
    diffusion = OMEGA @ np.real(gram) @ OMEGA.T / (4.0 * kappa2**2)
    drift = OMEGA @ np.imag(gram) / (2.0 * kappa2)
    return DriftDiffusion(a=drift, d=diffusion)


def thermal_ops_matrix(gamma1: float, gamma2: float) -> np.ndarray:
    """C for c1 = sqrt(g1) b, c2 = sqrt(g2) b^dag with b = kappa (x1 + i x2)."""
    k = KAPPA
    return np.array(
        [
            [math.sqrt(gamma1) * k, 1j * math.sqrt(gamma1) * k],
            [math.sqrt(gamma2) * k, -1j * math.sqrt(gamma2) * k],
        ]
    )


def test_channel_from_zero_ops_is_unitary():
    ch = channel_from_lindblad_ops(np.zeros((1, 2)))
    assert np.allclose(ch.a, 0.0)
    assert np.allclose(ch.d, 0.0)


def test_channel_from_thermal_ops_matches_thermal_channel():
    gamma1, gamma2, omega = 1.2, 0.2, 3.7
    ch_ops = channel_from_lindblad_ops(thermal_ops_matrix(gamma1, gamma2))
    gamma = gamma1 - gamma2
    ch_ref = thermal_channel(gamma, gamma2 / gamma, omega)
    # the jump operators carry no free rotation; add w' Omega by hand
    drift = ch_ops.a + omega * OMEGA
    assert np.allclose(drift, ch_ref.a, atol=1e-14)
    assert np.allclose(ch_ops.d, ch_ref.d, atol=1e-14)


def test_channel_ops_bilinear_scaling():
    c = thermal_ops_matrix(0.9, 0.3)
    one = channel_from_lindblad_ops(c)
    two = channel_from_lindblad_ops(math.sqrt(2.0) * c)
    assert np.allclose(two.d, 2.0 * one.d)
    assert np.allclose(two.a, 2.0 * one.a)  # A is purely dissipative


def test_channel_dimension_mismatch():
    with pytest.raises(ValueError):
        channel_from_lindblad_ops(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        channel_from_lindblad_ops(np.zeros((1, 4)))  # single mode only


def test_fixed_point_identity_and_sign_flip_sabotage():
    ch = thermal_channel(0.739, 0.4, 1e4)
    assert fixed_point_residual(ch) <= 1e-16 * np.abs(ch.d).max()
    # flipping the damping sign must break the stationarity identity
    flipped = dataclasses.replace(
        ch, a=+0.5 * 0.739 * np.eye(2) + 1e4 * OMEGA, gamma=-0.739
    )
    assert fixed_point_residual(flipped) > 0.5 * np.abs(ch.d).max()


def test_closed_form_identity_at_t0():
    st = state_from_params(0.7, 1.1, 0.4, d=np.array([0.2, 0.5]))
    ch = thermal_channel(0.9, 0.25, 4.0)
    out = evolve_closed_form(st, ch, 0.0)
    assert np.array_equal(out.sigma, st.sigma)
    assert np.array_equal(out.d, st.d)


def test_closed_form_asymptote():
    st = state_from_params(0.8, 1.0, 0.9, d=np.array([0.4, -0.3]))
    ch = thermal_channel(1.0, 0.35, 2.0)
    out = evolve_closed_form(st, ch, 50.0)
    assert np.abs(out.sigma - ch.sigma_inf).max() < 1e-20
    assert np.abs(out.d).max() < 1e-10


def test_closed_form_rejects_negative_time():
    ch = thermal_channel(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        evolve_closed_form(VACUUM, ch, -0.1)


def test_closed_form_purity_minimum_cross_check():
    # purity of the evolved covariance at t_min equals the metric formula
    gamma, r0 = 0.738, 10.0
    ch = thermal_channel(gamma, 0.0, 0.0)
    st = state_from_params(1.0, r0, 0.0)
    t_min = purity_minimum_time(1.0, r0, 1.0, gamma)
    assert t_min == pytest.approx(math.log(2.0) / gamma, rel=1e-12)
    evolved = params_from_state(evolve_closed_form(st, ch, t_min))
    (expected,) = metric_trajectory(1.0, r0, 1.0, gamma, 0.0, 0.0, t_min).mu
    assert evolved.mu == pytest.approx(expected, rel=1e-10)


def test_numeric_matches_closed_form():
    st = state_from_params(0.9, 1.2, 0.8, d=np.array([0.5, -0.2]))
    ch = thermal_channel(1.0, 0.3, 2.0)
    grid = np.linspace(0.0, 5.0, 200)
    worst = 0.0
    for t, num in zip(grid, evolve_numeric(st, ch, grid)):
        exact = evolve_closed_form(st, ch, t)
        scale = max(np.abs(exact.sigma).max(), 1.0)
        worst = max(worst, np.abs(num.sigma - exact.sigma).max() / scale)
        worst = max(worst, np.abs(num.d - exact.d).max() / max(np.abs(exact.d).max(), 1.0))
    assert worst < 1e-8


def test_numeric_unitary_preserves_purity():
    st = state_from_params(1.0, 1.0, 0.3)
    ch = DriftDiffusion(a=3.0 * OMEGA, d=np.zeros((2, 2)))
    grid = np.linspace(0.0, 4.0, 60)
    for out in evolve_numeric(st, ch, grid):
        assert purity(out) == pytest.approx(1.0, abs=1e-10)
    # and the final state is the symplectic conjugation of the initial one
    s = np.eye(2) * math.cos(3.0 * 4.0) + OMEGA * math.sin(3.0 * 4.0)
    final = evolve_numeric(st, ch, np.array([0.0, 4.0]))[-1]
    assert np.allclose(final.sigma, s @ st.sigma @ s.T, atol=1e-9)


@pytest.mark.parametrize(
    "state, channel",
    [
        # the check_lyapunov_consistency case of the verify suite
        (state_from_params(0.9, 1.0, 0.6, d=np.array([0.4, -0.1])),
         thermal_channel(1.0, 0.3, 2.0)),
        # unitary: D = 0, a pure rotation of sigma and d
        (state_from_params(1.0, 1.0, 0.3, d=np.array([0.5, -0.2])),
         thermal_channel(0.0, 0.0, 3.0)),
    ],
)
def test_numeric_is_exact_to_rounding(state, channel):
    grid = np.linspace(0.0, 5.0, 200)
    for t, num in zip(grid, evolve_numeric(state, channel, grid)):
        exact = evolve_closed_form(state, channel, t)
        scale = max(np.abs(exact.sigma).max(), 1.0)
        assert np.abs(num.sigma - exact.sigma).max() / scale <= 1e-13
        scale = max(np.abs(exact.d).max(), 1.0)
        assert np.abs(num.d - exact.d).max() / scale <= 1e-13


def test_thermal_trajectory_purity_bounded():
    # purity never exceeds max(mu0, mu_inf) along the thermal channel
    cases = [
        (1.0, 2.0, 0.25, 1.2),   # cooling-type: mu_inf < mu0
        (0.4, 1.0, 0.05, 0.9),   # purifying bath: mu_inf > mu0
    ]
    for mu0, r0, n_th, gamma in cases:
        mu_inf = 1.0 / (1.0 + 2.0 * n_th)
        st = state_from_params(mu0, r0, 0.4)
        ch = thermal_channel(gamma, n_th, 1.5)
        bound = max(mu0, mu_inf)
        for t in np.linspace(0.0, 20.0, 120):
            assert purity(evolve_closed_form(st, ch, t)) <= bound + 1e-12


def test_numeric_detects_unphysical_contraction():
    # pure contraction without diffusion dives below the vacuum bound
    st = VACUUM
    bad = DriftDiffusion(a=-0.5 * np.eye(2), d=np.zeros((2, 2)))
    with pytest.raises(RuntimeError):
        evolve_numeric(st, bad, np.linspace(0.0, 5.0, 6))


def test_numeric_rejects_bad_grid():
    st = VACUUM
    ch = thermal_channel(1.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        evolve_numeric(st, ch, np.array([0.0, 0.0, 1.0]))


def test_thermal_channel_matches_thermal_state():
    ch = thermal_channel(0.7, 1.0, 0.0)
    assert np.allclose(ch.sigma_inf, state_from_params(1.0 / 3.0, 0.0).sigma)
    with pytest.raises(ValueError):
        thermal_channel(-1.0, 0.1, 0.0)


def decades(lo: float, hi: float):
    return strategies.floats(lo, hi).map(lambda exponent: 10.0**exponent)


# zero, or a decade in which no product of the channel or its residual
# leaves the normal float range
ZERO_OR_DECADE = strategies.one_of(strategies.just(0.0), decades(-150.0, 150.0))


@settings(max_examples=300, deadline=None)
@given(gamma=ZERO_OR_DECADE, n_thermal=ZERO_OR_DECADE, omega_prime=ZERO_OR_DECADE)
def test_thermal_diffusion_is_positive_semidefinite_and_stationary(
    gamma, n_thermal, omega_prime
):
    # D symmetric with no negative eigenvalue, and sigma_inf its fixed point
    # up to rounding, over the domain thermal_channel accepts
    ch = thermal_channel(gamma, n_thermal, omega_prime)
    assert np.array_equal(ch.d, ch.d.T)
    assert np.linalg.eigvalsh(ch.d).min() >= 0.0
    assert fixed_point_residual(ch) <= 1e-15 * np.abs(ch.d).max()
