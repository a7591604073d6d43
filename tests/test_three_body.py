"""Three-body recombination: closed-form decay, half-life, rate ordering."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from phonodec.constants import RB87
from phonodec.damping import gamma_beliaev_asymptotic
from phonodec.three_body import decay_rate, half_life

L3 = RB87["three_body_l3_m6_per_s"]
RB87_L3_UNCERTAINTY = 1.9e-42  # m^6 / s, one sigma


def density_decay(n0, l3, t):
    """Closed-form solution n0 / sqrt(1 + 2 L3 n0^2 t) of dn/dt = -L3 n^3."""
    return n0 / np.sqrt(1.0 + 2.0 * l3 * n0 * n0 * np.asarray(t, dtype=float))


def test_half_life_identity():
    for n0 in (1e19, 3.2443719069944923e20, 1e21):
        t_half = half_life(n0, L3)
        assert density_decay(n0, L3, t_half) == pytest.approx(n0 / 2.0, rel=1e-14)
        # half-life equals 3 / (2 gamma(0))
        assert t_half == pytest.approx(1.5 / decay_rate(n0, L3), rel=1e-14)


def test_half_life_density_scaling():
    assert half_life(2e20, L3) == pytest.approx(half_life(1e20, L3) / 4.0, rel=1e-14)


def test_worked_example_ordering(paper_params):
    n0 = paper_params.density
    gamma3 = decay_rate(n0, L3)
    gamma_b = gamma_beliaev_asymptotic(1e4, paper_params)
    assert gamma3 == pytest.approx(0.61, rel=0.02)
    assert gamma3 < gamma_b
    t_half = half_life(n0, L3)
    assert t_half == pytest.approx(2.4, rel=0.05)
    t_min = math.log(2.0) / gamma_b
    assert t_half > 2.0 * t_min
    assert t_half / t_min == pytest.approx(2.6, rel=0.02)


def test_closed_form_matches_ode_integration():
    n0 = 3.24e20
    t_half = half_life(n0, L3)
    t_eval = np.linspace(0.0, 5.0 * t_half, 40)
    # work in units of n0 to keep the integrator well scaled
    sol = solve_ivp(
        lambda _t, y: -L3 * n0 * n0 * y**3,
        (0.0, t_eval[-1]),
        [1.0],
        t_eval=t_eval,
        rtol=1e-11,
        atol=1e-14,
    )
    exact = density_decay(n0, L3, t_eval) / n0
    assert np.abs(sol.y[0] - exact).max() < 1e-8


def test_uncertainty_band_is_published():
    assert RB87_L3_UNCERTAINTY == pytest.approx(1.9e-42)
    low = half_life(3.24e20, L3 + RB87_L3_UNCERTAINTY)
    high = half_life(3.24e20, L3 - RB87_L3_UNCERTAINTY)
    assert low < half_life(3.24e20, L3) < high
