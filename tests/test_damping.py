"""Vertex factors, closed-form rates, collision integrals, regime selection."""

import math
import warnings

import numpy as np
import pytest

from condensates import rb87
from phonodec.bec import beta_of, invert_dispersion
from phonodec.constants import HBAR
from phonodec.damping import (
    QuadratureConfig,
    RegimeWarning,
    gamma_beliaev_asymptotic,
    gamma_integral,
    gamma_landau_high_temperature,
    gamma_landau_low_temperature,
    select_regime,
    split_rates,
    vertex_coefficients,
)

GAMMA_B_PAPER = 0.739652485292398  # 87Rb, c_s 3.4 mm/s, T 0.5 nK, w 1e4
GAMMA_L_LOW_GOLDEN = 5.418705429151004e-06  # T = 2 nK, w = 1e2, frozen at first run


def test_vertex_symmetry(paper_params):
    rng = np.random.default_rng(7)
    for _ in range(12):
        q, k, kp = np.exp(rng.uniform(np.log(1e3), np.log(1e8), size=3))
        b_ab, _ = vertex_coefficients(q, k, kp, paper_params)
        b_ba, _ = vertex_coefficients(q, kp, k, paper_params)
        assert b_ab == pytest.approx(b_ba, rel=1e-12)


def test_vertex_hydrodynamic_scaling(paper_params):
    # decay vertex on an energy-conserving triple deep in the phonon branch:
    # B ~ (3 sqrt2 / 8) sqrt(x_q x_k x_l) with x = hbar k / (m c_s)
    mc = paper_params.mass * paper_params.speed_of_sound
    x_of = lambda k: HBAR * k / mc
    omega_q = 1e-3 * paper_params.chemical_potential / HBAR
    q = invert_dispersion(omega_q, paper_params)
    for frac in (0.25, 0.5, 0.75):
        k = invert_dispersion(frac * omega_q, paper_params)
        kl = invert_dispersion((1 - frac) * omega_q, paper_params)
        b, _ = vertex_coefficients(q, k, kl, paper_params)
        hydro = 3 * math.sqrt(2) / 8 * math.sqrt(x_of(q) * x_of(k) * x_of(kl))
        assert b == pytest.approx(hydro, rel=0.10)
    # collision vertex on its conserving triple (partner above the probe)
    for mult in (1.0, 2.0, 4.0):
        k = invert_dispersion(mult * omega_q, paper_params)
        kl = invert_dispersion((1 + mult) * omega_q, paper_params)
        _, l = vertex_coefficients(q, k, kl, paper_params)
        hydro = 2 * (3 * math.sqrt(2) / 8) * math.sqrt(x_of(q) * x_of(k) * x_of(kl))
        assert l == pytest.approx(hydro, rel=0.10)


def test_vertex_rejects_bad_wavenumbers(paper_params):
    with pytest.raises(ValueError):
        vertex_coefficients(0.0, 1e5, 1e5, paper_params)


def test_beliaev_worked_value(paper_params):
    gamma = gamma_beliaev_asymptotic(1e4, paper_params)
    assert gamma == pytest.approx(0.73, rel=0.05)
    assert gamma == pytest.approx(GAMMA_B_PAPER, rel=1e-12)


def test_beliaev_thermal_correction_negligible(paper_params, cold_params):
    warm = gamma_beliaev_asymptotic(1e4, paper_params)
    cold = gamma_beliaev_asymptotic(1e4, cold_params)
    assert abs(warm / cold - 1.0) < 1e-3


def test_beliaev_frequency_scaling(cold_params):
    full = gamma_beliaev_asymptotic(1e4, cold_params)
    half = gamma_beliaev_asymptotic(5e3, cold_params)
    assert full / half == pytest.approx(32.0, rel=1e-12)


def test_beliaev_loglog_slope(cold_params):
    omegas = np.geomspace(1e3, 1e4, 9)
    rates = [gamma_beliaev_asymptotic(w, cold_params) for w in omegas]
    slope = np.polyfit(np.log(omegas), np.log(rates), 1)[0]
    assert slope == pytest.approx(5.0, abs=0.05)


def test_beliaev_regime_flag():
    params = rb87(100e-9)
    with pytest.warns(RegimeWarning):
        gamma_beliaev_asymptotic(1e3, params)


def test_landau_high_temperature_value_and_linearity():
    params = rb87(100e-9)
    with warnings.catch_warnings():
        # k_B T / mu = 0.83 here, outside the strict validity region
        warnings.simplefilter("ignore", RegimeWarning)
        base = gamma_landau_high_temperature(1e3, params)
        assert base == pytest.approx(24.088173262615353, rel=1e-12)
        assert base == pytest.approx(24.0, rel=0.02)
        assert gamma_landau_high_temperature(2e3, params) == pytest.approx(
            2 * base, rel=1e-12
        )
        hot = rb87(200e-9)
        assert gamma_landau_high_temperature(1e3, hot) == pytest.approx(
            2 * base, rel=1e-12
        )


def test_landau_low_temperature_scaling_and_golden():
    params = rb87(2e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        base = gamma_landau_low_temperature(1e2, params)
        assert base == pytest.approx(GAMMA_L_LOW_GOLDEN, rel=1e-12)
        doubled = rb87(4e-9)
        assert gamma_landau_low_temperature(1e2, doubled) == pytest.approx(
            16 * base, rel=1e-12
        )
        assert gamma_landau_low_temperature(1e1, params) == pytest.approx(
            base / 10, rel=1e-12
        )


def test_integral_landau_vanishes_at_zero_temperature(cold_params):
    rates = gamma_integral(1e2, cold_params)
    assert rates.gamma_landau == 0.0
    assert rates.gamma_beliaev > 0.0


def test_integral_beliaev_matches_asymptotic_deep_phonon(cold_params):
    rates = gamma_integral(1e2, cold_params)
    closed = gamma_beliaev_asymptotic(1e2, cold_params)
    assert rates.gamma_beliaev == pytest.approx(closed, rel=0.10)


def test_integral_loglog_slope_deep_phonon(cold_params):
    omegas = np.geomspace(30.0, 300.0, 5)
    rates = [gamma_integral(w, cold_params).gamma_beliaev for w in omegas]
    slope = np.polyfit(np.log(omegas), np.log(rates), 1)[0]
    assert slope == pytest.approx(5.0, abs=0.05)


def test_integral_vs_asymptotic_three_points_per_regime():
    # spontaneous-decay regime at T = 0
    cold = rb87(0.0)
    for omega in (50.0, 100.0, 300.0):
        ratio = gamma_integral(omega, cold).gamma_beliaev / gamma_beliaev_asymptotic(
            omega, cold
        )
        assert ratio == pytest.approx(1.0, abs=0.10)
    # low-temperature collisional regime (mu >> k_B T >> hbar w)
    for temperature, omega in ((3e-9, 20.0), (3e-9, 50.0), (5e-9, 100.0)):
        p = rb87(temperature)
        ratio = gamma_integral(omega, p).gamma_landau / gamma_landau_low_temperature(
            omega, p
        )
        assert ratio == pytest.approx(1.0, abs=0.10)
    # high-temperature collisional regime (k_B T >> mu >> hbar w)
    for temperature, omega in ((2e-6, 1e3), (4e-6, 1e3), (4e-6, 3e2)):
        p = rb87(temperature)
        ratio = gamma_integral(omega, p).gamma_landau / gamma_landau_high_temperature(
            omega, p
        )
        assert ratio == pytest.approx(1.0, abs=0.10)


def test_quadrature_nonconvergence_is_hard_error():
    params = rb87(4e-6)
    cfg = QuadratureConfig(rel_tol=1.2e-14, max_subdivisions=3)
    with pytest.raises(RuntimeError):
        gamma_integral(1e3, params, cfg)


def test_select_regime_paper_scenario(paper_params):
    res = select_regime(1e4, paper_params)
    assert res.regime == "quantum"
    assert res.gamma == pytest.approx(GAMMA_B_PAPER, rel=1e-12)
    assert res.gamma == res.gamma_beliaev
    assert res.beta_q == pytest.approx(152.76, rel=1e-3)


def test_select_regime_intermediate_falls_back_to_integral():
    # k_B T ~ mu here: neither collisional closed form applies, and the
    # thermal ratio k_B T / hbar w ~ 131 rules out the spontaneous regime
    params = rb87(100e-9)
    res = select_regime(1e2, params)
    assert res.regime == "integral"
    assert res.beta_q == pytest.approx(0.008, rel=0.05)
    assert res.gamma > 0
    assert res.gamma_landau > res.gamma_beliaev


def test_select_regime_thermal_branches():
    hot = rb87(4e-6)
    assert select_regime(1e3, hot).regime == "thermal_high"
    low = rb87(3e-9)
    assert select_regime(50.0, low).regime == "thermal_low"


def test_split_rate_identities(paper_params):
    for omega_q, temperature in ((1e4, 0.5e-9), (1e3, 20e-9), (1e2, 100e-9)):
        gamma = 0.7
        g1, g2, gt, n_th = split_rates(gamma, omega_q, temperature)
        assert g1 - g2 == pytest.approx(gamma, rel=1e-14)
        beta = beta_of(omega_q, temperature)
        if beta < 700:
            assert g1 == pytest.approx(math.exp(beta) * g2, rel=1e-12)
        assert gt == pytest.approx(gamma * (1 + 2 * n_th), rel=1e-14)
        assert gt >= gamma
    # equality of gamma_T and gamma only at T = 0
    g1, g2, gt, _ = split_rates(0.7, 1e4, 0.0)
    assert (g1, g2, gt) == (0.7, 0.0, 0.7)


# n_th = 130919.83920784293 at 1 rad/s and 1 uK, so gamma (1 + 2 n_th) leaves
# the float range above gamma of about 6.9e302 1/s
@pytest.mark.parametrize("gamma", [1.0e303, np.float64(1.0e305), math.inf])
def test_split_rates_that_overflow_name_the_rate_and_n_th(gamma):
    with pytest.raises(ArithmeticError) as excinfo:
        split_rates(gamma, 1.0, 1e-6)
    assert f"gamma = {float(gamma)!r} 1/s at n_th = 130919.83920784293" in str(excinfo.value)


def test_split_rates_just_inside_the_float_range_are_finite():
    rates = split_rates(6.8e302, 1.0, 1e-6)
    assert all(map(math.isfinite, rates))


def test_select_regime_gamma_positive_across_inputs():
    for temperature in (0.0, 0.5e-9, 5e-9, 100e-9, 4e-6):
        params = rb87(temperature)
        for omega in (50.0, 1e3, 1e4):
            res = select_regime(omega, params)
            assert res.gamma > 0
            assert res.gamma_total >= res.gamma
            if res.n_thermal > 1e-14:  # occupation representable in float
                assert res.gamma_total > res.gamma
