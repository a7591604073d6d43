"""Vertex factors, closed-form rates, collision integrals, regime selection."""

import math
import warnings

import numpy as np
import pytest

from condensates import rb87
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from scipy.optimize import brentq

from phonodec.bec import CondensateParams, beta_of
from phonodec.constants import HBAR, K_B, RB87, YB174
from phonodec.damping import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    RegimeWarning,
    _energy,
    _free_ratio,
    _momentum,
    _nearest_closed_form,
    closed_form_rates,
    condensate_units,
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


# The Bogoliubov branch in the condensate's units: x = hbar k / (m c_s) and
# E = hbar w / mu


def test_energy_phonon_and_free_particle_limits():
    assert _energy(1e-3) == pytest.approx(1e-3, rel=1e-6)  # w -> c_s k
    assert _energy(1e3) == pytest.approx(0.5e6, rel=1e-5)  # hbar k^2 / 2m


def test_energy_worked_value():
    # spec-sheet mass value at k = 2.94e6 1/m; the free-particle term
    # contributes ~5% here
    mass, c_s = 1.4432e-25, 3.4e-3
    omega = mass * c_s**2 / HBAR * _energy(HBAR * 2.94e6 / (mass * c_s))
    assert omega == pytest.approx(10482.990037499592, rel=1e-12)
    phonon_part = c_s * 2.94e6
    assert 0.03 < (omega - phonon_part) / omega < 0.07


def test_energy_relation_and_monotonicity():
    x = np.geomspace(1e-6, 1e6, 200)
    e = _energy(x)
    assert np.all(np.diff(e) > 0)
    np.testing.assert_allclose(e * e, x * x + x**4 / 4, rtol=1e-14)


def test_momentum_inverts_energy_over_the_float_range():
    e = np.geomspace(1e-300, 1e300, 601)
    x = _momentum(e)
    assert np.all(x > 0)
    # round trip wherever x^2 / 4 is finite; the phonon and free limits beyond
    inner = (e > 1e-150) & (e < 1e150)
    np.testing.assert_allclose(_energy(x[inner]), e[inner], rtol=1e-14)
    assert _momentum(1e-300) == pytest.approx(1e-300, rel=1e-15)
    assert _momentum(1e300) == pytest.approx(math.sqrt(2e300), rel=1e-15)


def test_momentum_worked_value_and_bisection():
    x = _momentum(0.6)  # fig1, about hbar w / mu = 0.6
    x_bisect = brentq(lambda y: _energy(y) - 0.6, 1e-3, 10.0, rtol=1e-15)
    assert x == pytest.approx(x_bisect, rel=1e-14)


def test_free_ratio_is_the_squared_sum_of_the_bogoliubov_coefficients():
    for x in np.geomspace(1e-5, 2e2, 50):
        e = _energy(x)
        u = math.sqrt((x * x / 2 + 1 + e) / (2 * e))
        v = -math.sqrt((x * x / 2 + 1 - e) / (2 * e))
        ratio = _free_ratio(x, e)
        assert ratio == pytest.approx((u + v) ** 2, rel=1e-9)
        assert 1 / ratio == pytest.approx((u - v) ** 2, rel=1e-12)
    # S -> x / 2 deep in the phonon branch, and -> 1 for free particles
    assert _free_ratio(1e-300, _energy(1e-300)) == pytest.approx(0.5e-300, rel=1e-15)
    assert _free_ratio(1e6, _energy(1e6)) == pytest.approx(1.0, rel=1e-11)


def mp_vertices(xq, xk, xl):
    """(b, l) of vertex_coefficients' u/v products at 50 digits, on the same
    float triple."""
    with mp.workdps(50):
        def uv(x):
            x = mpf(x)
            e = x * mp.sqrt(1 + x * x / 4)
            h = x * x / 2 + 1
            return mp.sqrt((h + e) / (2 * e)), -mp.sqrt((h - e) / (2 * e))

        (uq, vq), (uk, vk), (ul, vl) = uv(xq), uv(xk), uv(xl)
        b = uq * (uk * ul + vk * ul + uk * vl) + vq * (vk * vl + vk * ul + uk * vl)
        l = 2 * (uq * (vk * ul + uk * ul + vk * vl) + vq * (uk * vl + uk * ul + vk * vl))
        return b, l


@pytest.mark.parametrize("eps", [0.3, 3e-3, 3e-4, 3e-5])
@pytest.mark.parametrize("ratio", [1e-5, 1e-2, 0.5])
def test_vertices_on_energy_conserving_triples_match_50_digits(eps, ratio):
    # for phonons the u/v products cancel to b and l, losing up to all their
    # digits at the smaller eps and k/q here; the form in S keeps the digits
    # that its own S_k + S_k' - S_q, which cancels like x^2, leaves
    xq = _momentum(eps)
    xk = ratio * xq
    decay = _momentum(eps - _energy(xk))
    collision = _momentum(eps + _energy(xk))
    b, _ = vertex_coefficients(xq, xk, decay)
    _, l = vertex_coefficients(xq, xk, collision)
    tolerance = 1e-15 / (eps * eps * ratio)
    assert abs(b / mp_vertices(xq, xk, decay)[0] - 1) < tolerance
    assert abs(l / mp_vertices(xq, xk, collision)[1] - 1) < tolerance


def test_vertex_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(12):
        q, k, kp = np.exp(rng.uniform(np.log(1e-4), np.log(1e1), size=3))
        b_ab, _ = vertex_coefficients(q, k, kp)
        b_ba, _ = vertex_coefficients(q, kp, k)
        assert b_ab == pytest.approx(b_ba, rel=1e-12)


def test_vertex_hydrodynamic_scaling():
    # decay vertex on an energy-conserving triple deep in the phonon branch:
    # B ~ (3 sqrt2 / 8) sqrt(x_q x_k x_l)
    eps = 1e-3
    q = _momentum(eps)
    for frac in (0.25, 0.5, 0.75):
        k, kl = _momentum(frac * eps), _momentum((1 - frac) * eps)
        b, _ = vertex_coefficients(q, k, kl)
        hydro = 3 * math.sqrt(2) / 8 * math.sqrt(q * k * kl)
        assert b == pytest.approx(hydro, rel=0.10)
    # collision vertex on its conserving triple (partner above the probe)
    for mult in (1.0, 2.0, 4.0):
        k, kl = _momentum(mult * eps), _momentum((1 + mult) * eps)
        _, l = vertex_coefficients(q, k, kl)
        hydro = 2 * (3 * math.sqrt(2) / 8) * math.sqrt(q * k * kl)
        assert l == pytest.approx(hydro, rel=0.10)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_vertex_rejects_bad_wavenumbers(bad):
    with pytest.raises(ValueError, match="wavenumbers must be positive"):
        vertex_coefficients(bad, 0.1, 0.1)
    with pytest.raises(ValueError, match="wavenumbers must be positive"):
        vertex_coefficients(0.1, np.array([0.1, bad]), 0.1)


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
    # k_B T / hbar w_q = 13: far outside the spontaneous-decay region, so
    # asymptotic takes the nearest collisional form, and warns
    params = rb87(100e-9)
    with pytest.warns(RegimeWarning, match="validity region") as caught:
        res = select_regime(1e3, params, source="asymptotic")
    assert res.regime == "thermal_low"
    assert res.flags == (str(caught[0].message),)


def test_landau_high_temperature_value_and_linearity():
    params = rb87(100e-9)
    base = gamma_landau_high_temperature(1e3, params)
    assert base == pytest.approx(24.088173262615353, rel=1e-12)
    assert base == pytest.approx(24.0, rel=0.02)
    assert gamma_landau_high_temperature(2e3, params) == pytest.approx(2 * base, rel=1e-12)
    hot = rb87(200e-9)
    assert gamma_landau_high_temperature(1e3, hot) == pytest.approx(2 * base, rel=1e-12)


def test_landau_low_temperature_scaling_and_golden():
    params = rb87(2e-9)
    base = gamma_landau_low_temperature(1e2, params)
    assert base == pytest.approx(GAMMA_L_LOW_GOLDEN, rel=1e-12)
    doubled = rb87(4e-9)
    assert gamma_landau_low_temperature(1e2, doubled) == pytest.approx(16 * base, rel=1e-12)
    assert gamma_landau_low_temperature(1e1, params) == pytest.approx(base / 10, rel=1e-12)


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


# One rule for the closed forms' regions: select_regime decides and warns,
# and the closed forms are only formulas

CLOSED_FORMS = (
    gamma_beliaev_asymptotic,
    gamma_landau_high_temperature,
    gamma_landau_low_temperature,
)


def selected(omega, params, source):
    """select_regime's result and the texts of the RegimeWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = select_regime(omega, params, source=source)
    return res, [str(w.message) for w in caught if issubclass(w.category, RegimeWarning)]


@settings(max_examples=300, deadline=None)
@given(log_theta=st.floats(-3.0, 2.5), log_eps=st.floats(-3.0, 2.5))
def test_auto_takes_a_closed_form_exactly_where_asymptotic_does_not_warn(log_theta, log_eps):
    # the mode at theta = k_B T / mu and eps = hbar w_q / mu, in decades
    mu = rb87(0.0).chemical_potential
    params = rb87(10.0**log_theta * mu / K_B)
    omega = 10.0**log_eps * mu / HBAR
    auto, auto_warnings = selected(omega, params, "auto")
    nearest, nearest_warnings = selected(omega, params, "asymptotic")
    assert auto_warnings == []
    assert nearest.regime in ("quantum", "thermal_high", "thermal_low")
    assert (auto.regime == nearest.regime) == (nearest_warnings == [])
    if auto.regime != nearest.regime:
        assert auto.regime == "integral"
    # one warning at most, and its text is the flag
    assert len(nearest_warnings) <= 1
    assert nearest.flags == tuple(nearest_warnings)


@pytest.mark.parametrize("closed_form", CLOSED_FORMS)
def test_a_closed_form_called_directly_does_not_warn(closed_form):
    # k_B T / mu = 0.83 and hbar w_q / mu = 0.063: outside all three regions
    params = rb87(100e-9)
    assert not _nearest_closed_form(*condensate_units(1e3, params))[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert closed_form(1e3, params) > 0.0


# regime -> (formula, the channel it fills: 0 decay, 1 collisional), written
# out here apart from damping.closed_form_rates
CLOSED_FORM_CHANNELS = {
    "quantum": (gamma_beliaev_asymptotic, 0),
    "thermal_high": (gamma_landau_high_temperature, 1),
    "thermal_low": (gamma_landau_low_temperature, 1),
}


@pytest.mark.parametrize("regime", sorted(CLOSED_FORM_CHANNELS))
def test_closed_form_rates_puts_each_formula_in_its_channel(regime):
    formula, channel = CLOSED_FORM_CHANNELS[regime]
    params = rb87(100e-9)
    expected = [0.0, 0.0]
    expected[channel] = formula(1e3, params)
    assert closed_form_rates(regime, 1e3, params) == tuple(expected)


@pytest.mark.parametrize("regime", ["integral", "explicit", "auto"])
def test_closed_form_rates_rejects_what_is_not_a_closed_form(regime):
    with pytest.raises(ValueError, match="not a closed form"):
        closed_form_rates(regime, 1e3, rb87(100e-9))


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


# Every rate is s times a function of theta = k_B T / mu and eps = hbar w / mu


@pytest.mark.parametrize(
    "temperature, omega, speed_of_sound",
    [(0.5e-9, 1e4, 3.4e-3), (3e-9, 50.0, 3.4e-3), (4e-6, 1e3, 3.4e-3), (2e-7, 3e2, 1.7e-3)],
)
def test_closed_forms_are_the_rate_scale_times_polynomials(temperature, omega, speed_of_sound):
    params = rb87(temperature, speed_of_sound)
    theta, eps = condensate_units(omega, params)
    s = params.rate_scale
    expected = {
        gamma_beliaev_asymptotic: 3 * math.sqrt(math.pi) / 80 * eps**5 * (1 + (theta / eps) ** 3),
        gamma_landau_high_temperature: 3 * math.pi**1.5 / 4 * theta * eps,
        gamma_landau_low_temperature: 3 * math.pi**4.5 / 5 * theta**4 * eps,
    }
    for closed_form, polynomial in expected.items():
        assert closed_form(omega, params) == pytest.approx(s * polynomial, rel=4e-15)


# 87Rb, and 174Yb at the scattering length of ROADMAP's Baseline
SPECIES = {
    "rb87": (RB87["mass_kg"], RB87["scattering_length_m"]),
    "yb174": (YB174["mass_kg"], 2.8e-9),
}
condensate = st.tuples(st.sampled_from(sorted(SPECIES)), st.floats(0.5e-3, 7e-3))


def scaled_rates(species, speed_of_sound, theta, eps):
    """gamma_integral over the rate scale, at the (theta, eps) of one condensate."""
    mass, a = SPECIES[species]
    mu = mass * speed_of_sound**2
    params = CondensateParams(mass, a, theta * mu / K_B, speed_of_sound=speed_of_sound)
    rates = gamma_integral(eps * mu / HBAR, params)
    return rates.gamma_beliaev / params.rate_scale, rates.gamma_landau / params.rate_scale


@settings(max_examples=25, deadline=None)
@given(
    first=condensate,
    second=condensate,
    theta=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    eps=st.floats(1e-3, 3.0),
)
def test_equal_theta_and_eps_give_equal_scaled_rates(first, second, theta, eps):
    one, other = scaled_rates(*first, theta, eps), scaled_rates(*second, theta, eps)
    assert one == pytest.approx(other, rel=DEFAULT_QUADRATURE.rel_tol, abs=0.0)
