"""Truncated number-basis oracle: state prep, master-equation integration."""

import math

import numpy as np
import pytest

from phonodec.decoherence import metric_trajectory
from phonodec.fock import lindblad_step_integrate, squeezed_vacuum_fock
from phonodec.gaussian import KAPPA, state_from_params
from phonodec.lyapunov import evolve_closed_form, thermal_channel


def third_order_quadrature_moments(rho: np.ndarray) -> float:
    """Largest symmetrized third-order central quadrature moment.

    Zero for any Gaussian state; certifies that the master-equation
    evolution preserves Gaussianity.
    """
    dim = rho.shape[0]
    sq = np.sqrt(np.arange(1, dim))
    b = np.diag(sq, k=1).astype(complex)
    x1 = (b + b.conj().T) / (2.0 * KAPPA)
    x2 = 1j * (b.conj().T - b) / (2.0 * KAPPA)
    d = [float(np.trace(x @ rho).real) for x in (x1, x2)]
    xc = [x1 - d[0] * np.eye(dim), x2 - d[1] * np.eye(dim)]
    worst = 0.0
    for i in range(2):
        for j in range(i, 2):
            for k in range(j, 2):
                acc = 0.0 + 0.0j
                perms = ((i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i))
                for p in perms:
                    acc += np.trace(xc[p[0]] @ xc[p[1]] @ xc[p[2]] @ rho)
                worst = max(worst, abs(acc) / 6.0)
    return worst


def test_squeezed_vacuum_amplitudes():
    c = squeezed_vacuum_fock(0.0, 20)
    assert c[0] == 1.0 and np.all(c[1:] == 0.0)
    c = squeezed_vacuum_fock(0.8, 60)
    assert np.all(c[1::2] == 0.0)
    # explicit formula for the first few even amplitudes
    th, ch = math.tanh(0.8), math.cosh(0.8)
    assert c[2] == pytest.approx(-th * math.sqrt(2.0) / (2.0 * math.sqrt(ch)), rel=1e-12)
    assert c[4] == pytest.approx(
        th * th * math.sqrt(24.0) / (4.0 * 2.0 * math.sqrt(ch)), rel=1e-12
    )
    # an even cutoff keeps its top amplitude c_{n_cut}
    c = squeezed_vacuum_fock(0.5, 40)
    th, ch = math.tanh(0.5), math.cosh(0.5)
    top = th**20 * math.sqrt(math.factorial(40)) / (2**20 * math.factorial(20))
    assert c[40] == pytest.approx(top / math.sqrt(ch), rel=1e-12)


def test_squeezed_vacuum_norm_and_occupation():
    c = squeezed_vacuum_fock(0.5, 40)
    assert abs(float(c @ c) - 1.0) < 1e-10
    n = np.arange(41)
    assert float((c * c) @ n) == pytest.approx(math.sinh(0.5) ** 2, abs=1e-8)
    c = squeezed_vacuum_fock(1.0, 80)
    assert abs(float(c @ c) - 1.0) < 1e-10
    assert float((c * c) @ np.arange(81)) == pytest.approx(
        math.sinh(1.0) ** 2, abs=1e-8
    )


def test_squeezed_vacuum_cutoff_insufficiency():
    with pytest.raises(ValueError):
        squeezed_vacuum_fock(2.0, 20)  # sinh^2 = 13 quanta in 20 levels


def test_oracle_matches_closed_forms():
    r0, n_th, gamma, omega, n_cut = 0.5, 0.2, 1.0, 0.5, 40
    c = squeezed_vacuum_fock(r0, n_cut)
    rho0 = np.outer(c, c).astype(complex)
    grid = np.linspace(0.0, 5.0, 26)
    traj = lindblad_step_integrate(
        rho0, omega, gamma * (1 + n_th), gamma * n_th, grid
    )
    state0 = state_from_params(1.0, r0, math.pi)  # (-tanh r)^n squeezes x1
    channel = thermal_channel(gamma, n_th, omega)
    mu_inf = 1.0 / (1.0 + 2.0 * n_th)
    metrics = metric_trajectory(1.0, r0, mu_inf, gamma, state0.occupation, n_th, grid)
    assert np.abs(traj.purity - metrics.mu).max() < 1e-3
    assert np.abs(traj.occupation - metrics.occupation).max() < 1e-3
    for i, t in enumerate(grid):
        exact = evolve_closed_form(state0, channel, t)
        assert np.abs(traj.covariance[i] - exact.sigma).max() < 1e-3
        assert np.abs(traj.displacement[i]).max() < 1e-9


def test_oracle_matches_closed_forms_at_envelope_edge():
    # the largest squeezing and cutoff the oracle is documented for
    r0, n_th, gamma, omega, n_cut = 1.0, 0.2, 1.0, 0.5, 80
    c = squeezed_vacuum_fock(r0, n_cut)
    rho0 = np.outer(c, c).astype(complex)
    grid = np.linspace(0.0, 5.0, 6)
    traj = lindblad_step_integrate(
        rho0, omega, gamma * (1 + n_th), gamma * n_th, grid
    )
    state0 = state_from_params(1.0, r0, math.pi)
    channel = thermal_channel(gamma, n_th, omega)
    mu_inf = 1.0 / (1.0 + 2.0 * n_th)
    metrics = metric_trajectory(1.0, r0, mu_inf, gamma, state0.occupation, n_th, grid)
    assert np.abs(traj.purity - metrics.mu).max() < 1e-6
    for i, t in enumerate(grid):
        exact = evolve_closed_form(state0, channel, t)
        assert np.abs(traj.covariance[i] - exact.sigma).max() < 1e-6


def test_oracle_unitary_purity_constant():
    c = squeezed_vacuum_fock(0.5, 40)
    rho0 = np.outer(c, c).astype(complex)
    traj = lindblad_step_integrate(rho0, 1.3, 0.0, 0.0, np.linspace(0.0, 3.0, 7))
    assert np.abs(traj.purity - traj.purity[0]).max() < 1e-9


def test_oracle_thermalizes_to_bose_einstein_weights():
    r0, n_th, gamma = 0.5, 0.2, 1.0
    c = squeezed_vacuum_fock(r0, 40)
    rho0 = np.outer(c, c).astype(complex)
    traj = lindblad_step_integrate(
        rho0, 0.5, gamma * (1 + n_th), gamma * n_th, np.array([0.0, 18.0])
    )
    beta = math.log((1 + n_th) / n_th)
    weights = (1.0 - math.exp(-beta)) * np.exp(-beta * np.arange(41))
    populations = np.real(np.diagonal(traj.final_rho))
    assert np.abs(populations - weights).max() < 1e-6


def test_oracle_preserves_gaussianity():
    r0, n_th, gamma = 0.5, 0.2, 1.0
    c = squeezed_vacuum_fock(r0, 40)
    rho0 = np.outer(c, c).astype(complex)
    grid = np.linspace(0.0, 4.0, 5)
    assert third_order_quadrature_moments(rho0) < 1e-10
    traj = lindblad_step_integrate(rho0, 0.5, gamma * (1 + n_th), gamma * n_th, grid)
    assert third_order_quadrature_moments(traj.final_rho) < 1e-6


def test_oracle_initial_population_precheck():
    rho = np.zeros((21, 21), dtype=complex)
    rho[20, 20] = 1.0  # all weight at the top of the basis
    with pytest.raises(ValueError):
        lindblad_step_integrate(rho, 1.0, 1.0, 0.0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        lindblad_step_integrate(rho[:, :20], 1.0, 1.0, 0.0, np.array([0.0, 1.0]))


def test_oracle_cutoff_leak_detection():
    # strong heating overwhelms a 15-level basis
    rho = np.zeros((16, 16), dtype=complex)
    rho[0, 0] = 1.0
    with pytest.raises(RuntimeError):
        lindblad_step_integrate(
            rho, 0.0, 0.5, 0.45, np.linspace(0.0, 12.0, 4)
        )


def squeezed_oracle_case(t_grid, r0=0.5, n_th=0.2, gamma=1.0, omega=0.5, n_cut=40):
    """Oracle trajectory of a squeezed vacuum and the matching closed-form data."""
    c = squeezed_vacuum_fock(r0, n_cut)
    rho0 = np.outer(c, c).astype(complex)
    traj = lindblad_step_integrate(
        rho0, omega, gamma * (1 + n_th), gamma * n_th, np.asarray(t_grid, dtype=float)
    )
    state0 = state_from_params(1.0, r0, math.pi)
    return rho0, traj, state0, thermal_channel(gamma, n_th, omega)


def test_oracle_steps_an_unequal_grid_exactly():
    # five distinct steps: one stacked exponential each, chained in order
    grid = [0.0, 0.1, 0.35, 1.2, 2.0, 5.0]
    _, traj, state0, channel = squeezed_oracle_case(grid)
    mu_inf = 1.0 / (1.0 + 2.0 * 0.2)
    metrics = metric_trajectory(1.0, 0.5, mu_inf, 1.0, state0.occupation, 0.2, grid)
    assert np.abs(traj.purity - metrics.mu).max() < 1e-9
    for i, t in enumerate(grid):
        exact = evolve_closed_form(state0, channel, t)
        assert np.abs(traj.covariance[i] - exact.sigma).max() < 1e-9
        assert np.abs(traj.displacement[i] - exact.d).max() < 1e-9
        assert abs(traj.occupation[i] - exact.occupation) < 1e-9


def test_oracle_end_state_does_not_depend_on_the_steps_taken():
    _, one_step, _, _ = squeezed_oracle_case([0.0, 5.0])
    _, ten_steps, state0, channel = squeezed_oracle_case(np.linspace(0.0, 5.0, 11))
    assert np.abs(one_step.final_rho - ten_steps.final_rho).max() < 1e-12
    assert np.abs(one_step.covariance[-1] - ten_steps.covariance[-1]).max() < 1e-12
    exact = evolve_closed_form(state0, channel, 5.0)
    assert np.abs(ten_steps.covariance[-1] - exact.sigma).max() < 1e-9


def test_oracle_on_a_one_point_grid_returns_the_initial_moments():
    rho0, traj, state0, channel = squeezed_oracle_case([0.0])
    assert np.array_equal(traj.final_rho, rho0)
    assert traj.covariance.shape == (1, 2, 2)
    exact = evolve_closed_form(state0, channel, 0.0)
    assert np.abs(traj.covariance[0] - exact.sigma).max() < 1e-9
    assert traj.purity[0] == pytest.approx(1.0, abs=1e-9)
    assert traj.occupation[0] == pytest.approx(state0.occupation, abs=1e-9)
