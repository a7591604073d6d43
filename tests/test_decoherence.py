"""Closed-form metric evolutions, decoherence timestamps, cross-module identity."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from phonodec.bec import thermal_purity
from phonodec.decoherence import (
    classicality_time,
    metric_trajectory,
    purity_minimum_time,
)
from phonodec.gaussian import state_from_params
from phonodec.lyapunov import evolve_closed_form, thermal_channel
from williamson import params_from_state


def metrics(mu0, r0, n_thermal, gamma, t, n0=0.0):
    return metric_trajectory(mu0, r0, n0, t, gamma=gamma, n_thermal=n_thermal)


def test_purity_boundary_values():
    assert metrics(0.7, 2.0, 1 / 18, 1.3, 0.0).mu[0] == pytest.approx(0.7, rel=1e-14)
    assert metrics(0.7, 2.0, 1 / 18, 1.3, 50.0 / 1.3).mu[0] == pytest.approx(
        0.9, rel=1e-12
    )
    with pytest.raises(ValueError):
        metrics(0.0, 1.0, 1 / 18, 1.0, 0.0)
    with pytest.raises(ValueError):
        metrics(0.5, -1.0, 1 / 18, 1.0, 0.0)
    with pytest.raises(ValueError):
        metrics(0.5, 1.0, 1 / 18, 1.0, -1.0)


def test_purity_minimum_matches_brute_force():
    cases = [  # (mu0, r0, n_th, gamma); mu_inf = 1, 0.9, 0.95 and 0.6
        (1.0, 10.0, 0.0, 0.738),
        (1.0, 2.0, 1 / 18, 1.0),
        (0.8, 1.5, 1 / 38, 0.5),
        (0.9, 3.0, 1 / 3, 2.0),
    ]
    for mu0, r0, n_th, gamma in cases:
        t_min = purity_minimum_time(mu0, r0, gamma=gamma, n_thermal=n_th)
        assert t_min is not None
        res = minimize_scalar(
            lambda t: metrics(mu0, r0, n_th, gamma, t).mu[0],
            bounds=(0.0, 60.0 / gamma),
            method="bounded",
            options={"xatol": 1e-10 / gamma},
        )
        assert t_min == pytest.approx(res.x, abs=1e-6 / gamma)


def test_purity_minimum_paper_value():
    gamma = 0.738
    t_min = purity_minimum_time(1.0, 10.0, gamma=gamma, n_thermal=0.0)
    assert t_min == pytest.approx(math.log(2.0) / gamma, rel=1e-14)
    assert 0.8 < t_min < 1.1
    # independent of r0 once mu0 = mu_inf
    assert purity_minimum_time(1.0, 3.0, gamma=gamma, n_thermal=0.0) == pytest.approx(
        t_min, rel=1e-12
    )


def test_purity_minimum_absent_cases():
    assert purity_minimum_time(1.0, 0.0, gamma=1.0, n_thermal=0.0) is None  # stationary
    assert purity_minimum_time(0.9, 0.0, gamma=1.0, n_thermal=1 / 18) is None
    # heating without enough squeezing: monotone decrease, no interior minimum
    assert purity_minimum_time(1.0, 0.1, gamma=1.0, n_thermal=0.5) is None
    # derivative at zero: as soon as cosh 2r0 > mu_inf/mu0 the minimum appears
    assert purity_minimum_time(1.0, 1.0, gamma=1.0, n_thermal=0.5) is not None


def test_purity_minimum_scales_inversely_with_gamma():
    args = (1.0, 4.0)
    base = purity_minimum_time(*args, gamma=1.0, n_thermal=1 / 38)
    assert purity_minimum_time(*args, gamma=2.0, n_thermal=1 / 38) == pytest.approx(
        base / 2.0, rel=1e-14
    )
    assert purity_minimum_time(*args, gamma=0.5, n_thermal=1 / 38) == pytest.approx(
        base * 2.0, rel=1e-14
    )


def test_nonclassical_depth_examples():
    # thermalized unsqueezed state stays classical
    t = np.linspace(0.0, 10.0, 50)
    tau = metrics(0.8, 0.0, 0.125, 1.0, t).tau
    assert np.all(tau == 0.0)
    # strongly squeezed pure state in a zero-temperature bath
    tau0, tau_t = metrics(1.0, 10.0, 0.0, 0.738, [0.0, 2.0]).tau
    assert tau0 == pytest.approx(0.5 * (1.0 - math.exp(-20.0)), rel=1e-12)
    assert tau_t == pytest.approx(tau0 * math.exp(-0.738 * 2.0), rel=1e-10)


def test_nonclassical_depth_monotone_and_bounded():
    t = np.linspace(0.0, 12.0, 400)
    for mu0, r0, n_th in ((1.0, 10.0, 0.0), (0.9, 2.0, 0.125), (1.0, 0.5, 3 / 14)):
        tau = metrics(mu0, r0, n_th, 0.9, t).tau
        assert np.all(np.diff(tau) <= 1e-15)
        assert np.all(tau >= 0.0) and np.all(tau < 0.5)


def test_classicality_time():
    assert classicality_time(1.0, 10.0, gamma=0.738, n_thermal=0.0) == math.inf
    t0 = classicality_time(1.0, 1.0, gamma=1.0, n_thermal=1 / 18)
    assert t0 == pytest.approx(math.log((1 - 0.9 * math.exp(-2.0)) / 0.1), rel=1e-12)
    assert t0 == pytest.approx(2.1727, rel=1e-4)
    # defining property: tau vanishes there
    assert metrics(1.0, 1.0, 1 / 18, 1.0, t0).tau[0] < 1e-12
    # already-classical states report zero
    assert classicality_time(0.5, 0.0, gamma=1.0, n_thermal=1 / 18) == 0.0


def test_squeezing_evolution():
    r_0, r_50 = metrics(0.9, 1.7, 0.125, 1.0, [0.0, 50.0]).r
    assert r_0 == pytest.approx(1.7, rel=1e-12)
    assert r_50 == pytest.approx(0.0, abs=1e-10)
    t = np.linspace(0.0, 8.0, 100)
    r = metrics(1.0, 2.0, 0.0, 1.0, t).r
    assert np.all(np.diff(r) < 0)  # monotone decay toward the unsqueezed bath
    assert np.all(r <= 2.0)


def test_occupation_evolution():
    assert metrics(1.0, 0.0, 0.3, 1.0, 0.0, 5.0).occupation[0] == 5.0
    n0 = math.sinh(10.0) ** 2
    half = metrics(1.0, 0.0, 0.0, 0.738, math.log(2.0) / 0.738, n0).occupation[0]
    assert half == pytest.approx(n0 / 2.0, rel=1e-12)
    t = np.linspace(0.0, 5.0, 20)
    assert np.allclose(metrics(1.0, 0.0, 0.7, 2.0, t, 0.7).occupation, 0.7)
    with pytest.raises(ValueError):
        metrics(1.0, 0.0, 0.0, 1.0, 0.0, -1.0)


def test_all_metrics_match_covariance_evolution_extreme_squeezing():
    # the central internal consistency: closed-form metrics vs Williamson
    # extraction from the evolved covariance, phase-invariant channel
    mu0, r0, gamma, n_th = 1.0, 10.0, 0.738, 0.0
    channel = thermal_channel(gamma, n_th, 0.0)
    state = state_from_params(mu0, r0, 0.0)
    grid = np.linspace(0.0, 6.0, 200)
    traj = metrics(mu0, r0, n_th, gamma, grid, state.occupation)
    for t, mu_t, r_t, n_t, tau_t in zip(grid, traj.mu, traj.r, traj.occupation, traj.tau):
        p = params_from_state(evolve_closed_form(state, channel, t))
        tau_state = max(0.5 * (1.0 - math.exp(-2.0 * p.r) / p.mu), 0.0)
        assert p.mu == pytest.approx(mu_t, rel=1e-10)
        assert p.r == pytest.approx(r_t, rel=1e-10)
        assert p.occupation == pytest.approx(n_t, rel=1e-10)
        assert tau_state == pytest.approx(tau_t, rel=1e-8, abs=1e-12)


def test_all_metrics_match_covariance_evolution_with_rotation():
    # moderate squeezing, warm bath, rotating frame included
    mu0, r0, gamma, n_th, omega = 0.9, 1.2, 1.0, 0.4, 3.0
    channel = thermal_channel(gamma, n_th, omega)
    state = state_from_params(mu0, r0, 0.0)
    grid = np.linspace(0.0, 6.0, 200)
    traj = metrics(mu0, r0, n_th, gamma, grid, state.occupation)
    for t, mu_t, r_t, n_t in zip(grid, traj.mu, traj.r, traj.occupation):
        p = params_from_state(evolve_closed_form(state, channel, t))
        assert p.mu == pytest.approx(mu_t, rel=1e-10)
        assert p.r == pytest.approx(r_t, rel=1e-10, abs=1e-12)
        assert p.occupation == pytest.approx(n_t, rel=1e-10)


def test_purity_bounded_and_squeezing_bounded():
    t = np.linspace(0.0, 20.0, 500)
    for mu0, r0, n_th in ((1.0, 10.0, 0.0), (0.7, 2.0, 1 / 18), (0.95, 0.0, 7 / 6)):
        traj = metrics(mu0, r0, n_th, 1.0, t)
        assert np.all(traj.mu <= 1.0 + 1e-14)
        if thermal_purity(n_th) >= mu0:
            assert np.all(traj.r <= r0 + 1e-14)


def test_frequency_sweep_slope():
    # with the spontaneous-decay rate, t_min ~ w^-5 at T ~ 0
    base_gamma = 0.7397
    omegas = np.geomspace(1e3, 1e4, 25)
    gammas = base_gamma * (omegas / 1e4) ** 5
    t_mins = [purity_minimum_time(1.0, 10.0, gamma=g, n_thermal=0.0) for g in gammas]
    assert all(t is not None for t in t_mins)
    assert np.all(np.diff(t_mins) < 0)
    slope = np.polyfit(np.log(omegas), np.log(t_mins), 1)[0]
    assert slope == pytest.approx(-5.0, abs=0.05)


def test_metric_trajectory_assembly():
    grid = np.linspace(0.0, 4.0, 10)
    traj = metric_trajectory(
        1.0, 2.0, math.sinh(2.0) ** 2, grid, gamma=1.5, n_thermal=0.125
    )
    assert traj.mu[0] == pytest.approx(1.0)
    assert traj.t_min is not None
    assert traj.t_tau0 < math.inf
    assert traj.tau.min() >= 0.0
    n_end = math.exp(-6.0) * math.sinh(2.0) ** 2 + (1.0 - math.exp(-6.0)) * 0.125
    assert traj.occupation[-1] == pytest.approx(n_end, rel=1e-14)


PURITIES = st.floats(1e-12, 1.0) | st.just(1.0)


@settings(max_examples=150, deadline=None)
@given(
    mu0=PURITIES,
    r0=st.floats(0.0, 350.0) | st.just(0.0),
    gamma=st.floats(0.0, 1e3) | st.just(0.0),
    n0=st.floats(0.0, 1e300),
    n_thermal=st.floats(0.0, 1e300),
    t_max=st.floats(0.0, 1e4),
    points=st.integers(1, 10_000),
)
@example(1.0, 10.0, 0.738, math.sinh(10.0) ** 2, 0.0, 5.0, 200)
@example(0.9, 0.0, 0.0, 0.0, 0.0, 1.0, 1)
def test_each_grid_entry_equals_metric_trajectory_at_its_single_time(
    mu0, r0, gamma, n0, n_thermal, t_max, points
):
    # numpy's SIMD kernels treat the masked tail of an array on their own:
    # check a spread of entries and the last eight
    t = np.linspace(0.0, t_max, points)
    spread = np.linspace(0, points - 1, min(points, 56)).astype(int)
    entries = np.unique(np.r_[spread, max(points - 8, 0) : points])
    names = ("mu", "tau", "r", "occupation")
    with np.errstate(all="ignore"):  # the far corners overflow, the same way each time
        traj = metric_trajectory(mu0, r0, n0, t, gamma=gamma, n_thermal=n_thermal)
        for i in entries:
            one = metric_trajectory(mu0, r0, n0, t[i], gamma=gamma, n_thermal=n_thermal)
            for name in names:
                got, want = getattr(traj, name), getattr(one, name)
                assert want.shape == (1,), name
                assert got[i : i + 1].tobytes() == want.tobytes(), (name, i)
    for name in ("t", *names):
        got = getattr(traj, name)
        assert got.dtype == np.float64 and got.shape == t.shape, name
