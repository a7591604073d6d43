"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance and runtime budget is stated inline; the scenario is the
worked example throughout: an 87Rb condensate with c_s = 3.4 mm/s at
T = 0.5 nK probed at 10 krad/s with a r = 10 squeezed vacuum.
"""

import math
import time

import numpy as np
import pytest

from condensates import rb87
from phonodec.bec import beta_of, thermal_occupation, thermal_purity
from phonodec.config import preset_config
from phonodec.constants import RB87
from phonodec.damping import (
    gamma_beliaev_asymptotic,
    gamma_integral,
    split_rates,
)
from phonodec.decoherence import (
    metric_trajectory,
    purity_minimum_time,
)
from phonodec.fock import lindblad_step_integrate, squeezed_vacuum_fock
from phonodec.gaussian import state_from_params
from phonodec.lyapunov import (
    evolve_closed_form,
    evolve_numeric,
    fixed_point_residual,
    thermal_channel,
)
from phonodec.runs import run_sweep
from phonodec.three_body import decay_rate, half_life
from williamson import purity

OMEGA_Q = 1.0e4
R0 = 10.0


def timed(fn, *args, repeats=3, **kwargs):
    """Best-of-n wall time after a warmup call."""
    fn(*args, **kwargs)
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_criterion_1_beliaev_rate(paper_params):
    gamma, elapsed = timed(gamma_beliaev_asymptotic, OMEGA_Q, paper_params)
    assert gamma == pytest.approx(0.73, rel=0.05)
    assert elapsed < 1e-3
    print(f"PASS criterion 1: gamma_B = {gamma:.4f} 1/s (0.73 +- 5%), {elapsed*1e6:.0f} us")


def test_criterion_2_decoherence_time(paper_params):
    gamma = gamma_beliaev_asymptotic(OMEGA_Q, paper_params)
    n_th = thermal_occupation(OMEGA_Q, paper_params.temperature)
    t_min, elapsed = timed(purity_minimum_time, 1.0, R0, gamma=gamma, n_thermal=n_th)
    assert t_min == pytest.approx(math.log(2.0) / gamma, rel=1e-12)
    assert 0.8 <= t_min <= 1.1
    assert elapsed < 1e-3
    print(f"PASS criterion 2: t_min = {t_min:.4f} s (within 0.8-1.1 s), {elapsed*1e6:.0f} us")


def test_criterion_3_three_body_ordering(paper_params):
    gamma_b = gamma_beliaev_asymptotic(OMEGA_Q, paper_params)
    t_min = math.log(2.0) / gamma_b

    def both():
        n0, l3 = paper_params.density, RB87["three_body_l3_m6_per_s"]
        return decay_rate(n0, l3), half_life(n0, l3)

    (gamma3, t_half), elapsed = timed(both)
    assert gamma3 == pytest.approx(0.61, rel=0.05)
    assert gamma3 < gamma_b
    assert t_half == pytest.approx(2.4, rel=0.05)
    assert t_half > 2.0 * t_min
    assert elapsed < 1e-3
    print(
        f"PASS criterion 3: gamma3(0) = {gamma3:.3f} < gamma_B = {gamma_b:.3f};"
        f" t_half = {t_half:.2f} s > 2 t_min = {2 * t_min:.2f} s, {elapsed*1e6:.0f} us"
    )


def test_criterion_4_trajectory_shapes(paper_params):
    gamma = gamma_beliaev_asymptotic(OMEGA_Q, paper_params)
    n_th = thermal_occupation(OMEGA_Q, paper_params.temperature)
    mu_inf = thermal_purity(n_th)
    n0 = math.sinh(R0) ** 2
    # recovery toward mu_inf takes ~ln(cosh 2 r0)/gamma ~ 26 s at r0 = 10
    grid = np.linspace(0.0, 30.0, 500)
    traj = metric_trajectory(1.0, R0, n0, grid, gamma=gamma, n_thermal=n_th)

    # purity dips to an interior minimum, then rises toward mu_inf
    i_min = int(np.argmin(traj.mu))
    assert 0 < i_min < len(grid) - 1
    assert np.all(np.diff(traj.mu[: i_min + 1]) <= 0)
    assert np.all(np.diff(traj.mu[i_min:]) >= 0)
    assert traj.mu[-1] > 0.9 * mu_inf
    assert grid[i_min] == pytest.approx(traj.t_min, abs=grid[1] - grid[0])

    # nonclassical depth never increases and ends at its floor
    assert np.all(np.diff(traj.tau) <= 1e-15)
    assert traj.tau[-1] == traj.tau.min()
    assert traj.tau[-1] < 0.05 * traj.tau[0]

    # squeezing decays monotonically
    assert np.all(np.diff(traj.r) < 0)

    # occupation decays exponentially from sinh^2(10)
    assert traj.occupation[0] == pytest.approx(n0, rel=1e-12)
    expected = n0 * np.exp(-gamma * grid)
    assert np.allclose(traj.occupation, expected, rtol=1e-9)
    print("PASS criterion 4: trajectory shapes on the 500-point grid")


def test_criterion_5_frequency_sweep():
    config = preset_config("fig2", {"sweep_speeds_of_sound_m_per_s": [3.4e-3]})
    run, elapsed = timed(run_sweep, config, repeats=1)
    assert elapsed < 1.0
    rows = np.array([r[:5] for r in run.rows], dtype=float)
    omegas, t_mins = rows[:, 1], rows[:, 3]
    assert len(omegas) == 50
    assert np.all(np.diff(t_mins) < 0)
    slope = np.polyfit(np.log(omegas), np.log(t_mins), 1)[0]
    assert slope == pytest.approx(-5.0, abs=0.05)
    key = "truncation_omega_rad_per_s[c_s=0.0034]"
    assert run.header[key] == pytest.approx(8.2e3, rel=0.05)
    print(
        f"PASS criterion 5: sweep slope {slope:.3f} (-5 +- 0.05), truncation at"
        f" {run.header[key]:.0f} rad/s, {elapsed*1e3:.0f} ms"
    )


def test_criterion_6_fock_oracle_equivalence():
    r0, n_th, gamma, omega, n_cut = 0.5, 0.2, 1.0, 0.5, 40
    amplitudes = squeezed_vacuum_fock(r0, n_cut)
    rho0 = np.outer(amplitudes, amplitudes).astype(complex)
    grid = np.linspace(0.0, 5.0, 26)
    t0 = time.perf_counter()
    oracle = lindblad_step_integrate(
        rho0, omega, gamma * (1.0 + n_th), gamma * n_th, grid
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0

    state0 = state_from_params(1.0, r0, math.pi)
    channel = thermal_channel(gamma, n_th, omega)
    worst = 0.0
    for i, t in enumerate(grid):
        exact = evolve_closed_form(state0, channel, t)
        worst = max(worst, float(np.abs(oracle.covariance[i] - exact.sigma).max()))
        worst = max(worst, abs(oracle.purity[i] - purity(exact)))
        worst = max(worst, abs(oracle.occupation[i] - exact.occupation))
    assert worst < 1e-3
    print(f"PASS criterion 6: oracle max deviation {worst:.2e} (< 1e-3), {elapsed:.1f} s")


def test_criterion_7_closed_vs_numeric_lyapunov():
    state = state_from_params(0.9, 1.2, 0.8, d=np.array([0.5, -0.2]))
    channel = thermal_channel(1.0, 0.3, 2.0)
    grid = np.linspace(0.0, 5.0, 1000)
    worst = 0.0
    for t, numeric in zip(grid, evolve_numeric(state, channel, grid)):
        exact = evolve_closed_form(state, channel, t)
        scale = max(np.abs(exact.sigma).max(), 1.0)
        worst = max(worst, float(np.abs(numeric.sigma - exact.sigma).max() / scale))
    assert worst < 1e-8
    print(f"PASS criterion 7: closed vs numeric max deviation {worst:.2e} (< 1e-8)")


def test_criterion_8_fixed_point_and_detailed_balance(paper_params):
    gamma = gamma_beliaev_asymptotic(OMEGA_Q, paper_params)
    n_th = thermal_occupation(OMEGA_Q, paper_params.temperature)
    channel = thermal_channel(gamma, n_th, OMEGA_Q)
    residual = fixed_point_residual(channel) / np.abs(channel.d).max()
    assert residual < 1e-14

    worst = 0.0
    for omega_q, temperature in ((1e4, 0.5e-9), (1e3, 20e-9), (1e2, 100e-9)):
        g1, g2, _, _ = split_rates(gamma, omega_q, temperature)
        beta = beta_of(omega_q, temperature)
        if beta < 700:
            worst = max(worst, abs(g1 - math.exp(beta) * g2) / g1)
    assert worst < 1e-12
    print(
        f"PASS criterion 8: fixed-point residual {residual:.1e} (machine precision),"
        f" detailed balance {worst:.1e} (< 1e-12)"
    )


def test_criterion_9_integral_vs_asymptotic():
    cold = rb87(0.0)
    t0 = time.perf_counter()
    rates = gamma_integral(1e2, cold)
    elapsed = time.perf_counter() - t0
    closed = gamma_beliaev_asymptotic(1e2, cold)
    ratio = rates.gamma_beliaev / closed
    assert ratio == pytest.approx(1.0, abs=0.10)
    assert rates.gamma_landau == 0.0
    assert elapsed < 10.0
    print(
        f"PASS criterion 9: collision integral / closed form = {ratio:.4f}"
        f" (1 +- 0.1), {elapsed*1e3:.0f} ms"
    )
