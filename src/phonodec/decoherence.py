"""Closed-form metric evolution along the single-mode thermal channel.

Purity, nonclassical depth, squeezing magnitude and mean occupation of a
Gaussian state relaxing toward a thermal state of purity mu_inf at rate
gamma, plus the two decoherence timestamps: the interior purity minimum
t_min and the classicality time at which the nonclassical depth reaches
zero.  All metrics are phase invariant, so the squeezing phase never
enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


def _check_domain(mu0: float, r0: float, mu_inf: float, gamma: float) -> None:
    if not (0.0 < mu0 <= 1.0 and 0.0 < mu_inf <= 1.0):
        raise ValueError("purities must be in (0, 1]")
    if r0 < 0 or not math.isfinite(r0):
        raise ValueError("squeezing must be finite and >= 0")
    if gamma < 0 or not math.isfinite(gamma):
        raise ValueError("damping rate must be finite and >= 0")


def purity_minimum_time(mu0: float, r0: float, mu_inf: float, gamma: float) -> float | None:
    """Time of the interior purity minimum, or None when none exists.

    t_min = (1/gamma) ln[(rho + 1/rho - 2 cosh 2r0) / (rho - cosh 2r0)] with
    rho = mu0/mu_inf.  An interior minimum exists exactly when the argument
    of the log exceeds 1, equivalent to cosh 2r0 > max(rho, 1/rho); the sign
    of dmu/dt at t = 0 (negative iff rho cosh 2r0 > 1) is used as a
    cross-check against the log-argument criterion.
    """
    _check_domain(mu0, r0, mu_inf, gamma)
    if gamma == 0.0:
        return None
    rho = mu0 / mu_inf
    ch = math.cosh(2.0 * r0)
    den = rho - ch
    if den == 0.0:
        return None
    arg = (rho + 1.0 / rho - 2.0 * ch) / den
    if not arg > 1.0:
        return None
    if not rho * ch > 1.0:  # purity not initially decreasing: no interior minimum
        return None
    return math.log(arg) / gamma


def classicality_time(mu0: float, r0: float, mu_inf: float, gamma: float) -> float:
    """Time at which tau reaches zero; inf when it never does.

    t = (1/gamma) ln[(1 - (mu_inf/mu0) e^{-2 r0}) / (1 - mu_inf)].  For a
    zero-temperature environment (mu_inf = 1 to machine precision) the
    depth decays toward zero without reaching it, and inf is returned.
    A state that is classical from the start gives 0.
    """
    _check_domain(mu0, r0, mu_inf, gamma)
    num = 1.0 - (mu_inf / mu0) * math.exp(-2.0 * r0)
    if num <= 0.0:
        return 0.0
    if mu_inf >= 1.0 or gamma == 0.0:
        return math.inf
    return math.log(num / (1.0 - mu_inf)) / gamma


@dataclass(frozen=True)
class MetricTrajectory:
    """Time series of the four metrics plus the decoherence timestamps."""

    t: NDArray[np.float64]
    mu: NDArray[np.float64]
    tau: NDArray[np.float64]
    r: NDArray[np.float64]
    occupation: NDArray[np.float64]
    mu_inf: float
    t_min: float | None
    t_tau0: float


def metric_trajectory(
    mu0: float,
    r0: float,
    mu_inf: float,
    gamma: float,
    n0: float,
    n_thermal: float,
    t_grid,
) -> MetricTrajectory:
    """Evaluate the four metrics on the time grid ``t_grid`` (times >= 0).

    With e = e^{-gt}, c = 1 - e and rho = mu0/mu_inf:

    purity        mu(t) = mu0 [e^2 + rho^2 c^2 + 2 rho e c cosh 2r0]^{-1/2},
                  clamped at 1 against rounding above a pure state;
    depth         tau(t) = max{[e (1 - (mu_inf/mu0) e^{-2 r0}) + mu_inf - 1]
                               / (2 mu_inf), 0};
    squeezing     cosh 2r(t) = mu(t) [e cosh 2r0 / mu0 + c / mu_inf],
                  clamped at 1 against arccosh noise near r = 0; the phase
                  stays constant;
    occupation    N(t) = e N0 + c N_th.

    e, c, cosh 2r0 and mu(t) are each computed once.  A scalar time is a
    one-point grid.
    """
    _check_domain(mu0, r0, mu_inf, gamma)
    if n0 < 0 or n_thermal < 0:
        raise ValueError("occupations must be >= 0")
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t < 0):
        raise ValueError("time must be >= 0")
    e = np.exp(-gamma * t)
    c = 1.0 - e
    cosh_2r0 = math.cosh(2.0 * r0)
    rho = mu0 / mu_inf
    inner = e * e + rho * rho * c**2 + 2.0 * rho * e * c * cosh_2r0
    mu = np.minimum(mu0 / np.sqrt(inner), 1.0)
    tau = (e * (1.0 - (mu_inf / mu0) * math.exp(-2.0 * r0)) + mu_inf - 1.0) / (2.0 * mu_inf)
    cosh_2r = mu * (e * cosh_2r0 / mu0 + c / mu_inf)
    return MetricTrajectory(
        t=t,
        mu=mu,
        tau=np.maximum(tau, 0.0),
        r=0.5 * np.arccosh(np.maximum(cosh_2r, 1.0)),
        occupation=e * n0 + c * n_thermal,
        mu_inf=mu_inf,
        t_min=purity_minimum_time(mu0, r0, mu_inf, gamma),
        t_tau0=classicality_time(mu0, r0, mu_inf, gamma),
    )
