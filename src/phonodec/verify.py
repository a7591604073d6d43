"""Self-verification suite backing the ``verify`` CLI verb.

Each check pits the closed-form fast path against an independent route:
the Lyapunov fixed-point identity and detailed balance (exact algebra),
the block-exponential solution of the moment equations against the
closed-form channel solution, the truncated-number-basis master equation
against the Gaussian metrics, and the collision integrals against the
asymptotic rate formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bec import CondensateParams, beta_of
from .constants import RB87
from .damping import (
    gamma_beliaev_asymptotic,
    gamma_integral,
    gamma_landau_high_temperature,
    gamma_landau_low_temperature,
    split_rates,
)
from .decoherence import metric_trajectory
from .fock import lindblad_step_integrate, squeezed_vacuum_fock
from .gaussian import state_from_params
from .lyapunov import (
    evolve_closed_form,
    evolve_numeric,
    fixed_point_residual,
    thermal_channel,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def check_fixed_point(tol_scale: float = 1.0) -> CheckResult:
    channel = thermal_channel(gamma=0.7397, n_thermal=0.25, omega_prime=1.0e4)
    dev = fixed_point_residual(channel) / np.abs(channel.d).max()
    return CheckResult("fixed_point", dev, 1e-13 * tol_scale)


def check_detailed_balance(tol_scale: float = 1.0) -> CheckResult:
    worst = 0.0
    for omega_q, temperature in ((1e4, 0.5e-9), (1e3, 5e-9), (1e2, 100e-9)):
        g1, g2, _, _ = split_rates(0.7397, omega_q, temperature)
        beta = beta_of(omega_q, temperature)
        if beta < 700:
            worst = max(worst, abs(g1 - math.exp(beta) * g2) / g1)
    return CheckResult("detailed_balance", worst, 1e-12 * tol_scale)


def check_lyapunov_consistency(tol_scale: float = 1.0) -> CheckResult:
    state = state_from_params(0.9, 1.0, 0.6, d=np.array([0.4, -0.1]))
    channel = thermal_channel(gamma=1.0, n_thermal=0.3, omega_prime=2.0)
    grid = np.linspace(0.0, 5.0, 200)
    worst = 0.0
    for t, numeric in zip(grid, evolve_numeric(state, channel, grid)):
        exact = evolve_closed_form(state, channel, t)
        scale = max(np.abs(exact.sigma).max(), 1.0)
        worst = max(worst, np.abs(numeric.sigma - exact.sigma).max() / scale)
    return CheckResult("lyapunov_closed_vs_numeric", worst, 1e-8 * tol_scale)


def check_fock_oracle(tol_scale: float = 1.0) -> CheckResult:
    r0, n_th, gamma, omega, n_cut = 0.5, 0.2, 1.0, 0.5, 40
    amplitudes = squeezed_vacuum_fock(r0, n_cut)
    rho0 = np.outer(amplitudes, amplitudes).astype(complex)
    grid = np.linspace(0.0, 5.0, 11)
    oracle = lindblad_step_integrate(
        rho0, omega, gamma * (1 + n_th), gamma * n_th, grid
    )
    state0 = state_from_params(1.0, r0, math.pi)
    channel = thermal_channel(gamma, n_th, omega)
    mu_inf = 1.0 / (1.0 + 2.0 * n_th)
    metrics = metric_trajectory(1.0, r0, mu_inf, gamma, state0.occupation, n_th, grid)
    worst = max(
        np.abs(oracle.purity - metrics.mu).max(),
        np.abs(oracle.occupation - metrics.occupation).max(),
    )
    for i, t in enumerate(grid):
        exact = evolve_closed_form(state0, channel, t)
        worst = max(worst, np.abs(oracle.covariance[i] - exact.sigma).max())
    return CheckResult("fock_oracle", worst, 1e-3 * tol_scale)


def check_rate_integrals(tol_scale: float = 1.0) -> CheckResult:
    # (temperature K, omega rad/s, gamma_integral field, closed form), built
    # per call so the closed forms resolve to the module globals that
    # perfbench/tracer.py wraps
    cases = (
        (0.0, 1e2, "gamma_beliaev", gamma_beliaev_asymptotic),
        (3e-9, 50.0, "gamma_landau", gamma_landau_low_temperature),
        (4e-6, 1e3, "gamma_landau", gamma_landau_high_temperature),
    )
    worst = 0.0
    for temperature, omega, channel, closed_form in cases:
        params = CondensateParams(
            RB87["mass_kg"],
            RB87["scattering_length_m"],
            temperature,
            speed_of_sound=3.4e-3,
        )
        integral = getattr(gamma_integral(omega, params), channel)
        worst = max(worst, abs(integral / closed_form(omega, params) - 1.0))
    return CheckResult("integral_vs_asymptotic", worst, 0.10 * tol_scale)


ALL_CHECKS = (
    check_fixed_point,
    check_detailed_balance,
    check_lyapunov_consistency,
    check_fock_oracle,
    check_rate_integrals,
)


def run_verification(tol_scale: float = 1.0) -> list[CheckResult]:
    return [check(tol_scale) for check in ALL_CHECKS]


def format_report(results: list[CheckResult], tol_scale: float) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(
            f"{status} {res.name:<28s} max deviation {res.max_deviation:.3e}"
            f"  tolerance {res.tolerance:.3e}"
        )
    n_pass = sum(res.passed for res in results)
    lines.append(
        f"RESULT: {n_pass}/{len(results)} checks passed"
        f" (tolerance scale {tol_scale!r})"
    )
    return "\n".join(lines)
