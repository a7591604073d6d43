"""Closed-form metric evolution along the single-mode thermal channel.

Purity, nonclassical depth, squeezing magnitude and mean occupation of a
Gaussian state relaxing at rate gamma toward the thermal state of mean
occupation n_th, plus the two decoherence timestamps: the interior purity
minimum t_min and the classicality time at which the nonclassical depth
reaches zero.  All metrics are phase invariant, so the squeezing phase
never enters.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .bec import thermal_purity

if TYPE_CHECKING:
    from numpy.typing import NDArray

# The largest rho c whose square, plus the purity's other terms, stays well
# inside the float range (whose square root is about 1.34e154); the cross
# term 2 rho c e cosh 2r0 may reach _HUGE^2 / 2.
_HUGE = 1e153


def _check_domain(mu0: float, r0: float, gamma: float, n_thermal: float) -> None:
    if not 0.0 < mu0 <= 1.0:
        raise ValueError("purity must be in (0, 1]")
    if r0 < 0 or not math.isfinite(r0):
        raise ValueError("squeezing must be finite and >= 0")
    if gamma < 0 or not math.isfinite(gamma):
        raise ValueError("damping rate must be finite and >= 0")
    if not (n_thermal >= 0 and math.isfinite(1.0 + 2.0 * n_thermal)):
        raise ValueError("thermal occupation must be >= 0, with 1 + 2 n_th finite")


def purity_minimum_time(mu0: float, r0: float, *, gamma: float, n_thermal: float) -> float | None:
    """Time of the interior purity minimum, or None when none exists.

    t_min = (1/gamma) ln[(rho + 1/rho - 2 cosh 2r0) / (rho - cosh 2r0)] with
    rho = mu0/mu_inf.  An interior minimum exists exactly when the argument
    of the log exceeds 1, equivalent to cosh 2r0 > max(rho, 1/rho); the sign
    of dmu/dt at t = 0 (negative iff rho cosh 2r0 > 1) is used as a
    cross-check against the log-argument criterion.
    """
    _check_domain(mu0, r0, gamma, n_thermal)
    if gamma == 0.0:
        return None
    rho = mu0 / thermal_purity(n_thermal)
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


def _initial_depth(mu0: float, r0: float) -> float:
    """tau(0) = (1 - e^{-2 r0} / mu0) / 2, without cancellation at r0 -> 0."""
    return (-math.expm1(-2.0 * r0) - (1.0 - mu0)) / (2.0 * mu0)


def classicality_time(mu0: float, r0: float, *, gamma: float, n_thermal: float) -> float:
    """Time at which tau reaches zero; inf when it never does.

    tau(t) = e tau(0) - n_th (1 - e) with e = e^{-gamma t} vanishes at
    t = (1/gamma) ln(1 + tau(0) / n_th), the same as (1/gamma) ln[(1 -
    (mu_inf/mu0) e^{-2 r0}) / (1 - mu_inf)] without its two cancellations.
    A state that is classical from the start (tau(0) <= 0, that is
    e^{-2 r0} >= mu0) gives 0.  In a zero-temperature environment
    (n_th = 0) the depth decays toward zero without reaching it, and inf
    is returned.
    """
    _check_domain(mu0, r0, gamma, n_thermal)
    tau0 = _initial_depth(mu0, r0)
    if tau0 <= 0.0:
        return 0.0
    if n_thermal == 0.0 or gamma == 0.0:
        return math.inf
    return math.log1p(tau0 / n_thermal) / gamma


class MetricTrajectory(NamedTuple):
    """Time series of the four metrics plus the decoherence timestamps."""

    t: NDArray[np.float64]
    mu: NDArray[np.float64]
    tau: NDArray[np.float64]
    r: NDArray[np.float64]
    occupation: NDArray[np.float64]
    t_min: float | None
    t_tau0: float


def metric_trajectory(
    mu0: float,
    r0: float,
    n0: float,
    t_grid,
    *,
    gamma: float,
    n_thermal: float,
) -> MetricTrajectory:
    """Evaluate the four metrics on the time grid ``t_grid`` (times >= 0).

    With e = e^{-gt}, c = 1 - e = -expm1(-gt) and rho = mu0/mu_inf =
    mu0 (1 + 2 N_th):

    purity        mu(t) = mu0 [e^2 + (rho c)^2 + 2 rho c e cosh 2r0]^{-1/2},
                  clamped at 1 against rounding above a pure state, with
                  the sum divided by its largest term T and mu0 by sqrt T
                  where T would overflow: (rho c)^2 with n_th near the
                  frequency floor, the cross term at cosh 2r0 near the
                  float range;
    depth         tau(t) = max{e tau(0) - N_th c, 0}, with tau(0) =
                  (1 - e^{-2 r0}/mu0)/2, which is [e (1 - (mu_inf/mu0)
                  e^{-2 r0}) + mu_inf - 1] / (2 mu_inf) without its
                  cancellations;
    squeezing     cosh 2r(t) = mu(t) [e cosh 2r0 / mu0 + c (1 + 2 N_th)],
                  clamped at 1 against arccosh noise near r = 0; the phase
                  stays constant;
    occupation    N(t) = e N0 + c N_th.

    e, c, rho c, cosh 2r0 and mu(t) are each computed once.  A scalar time
    is a one-point grid.
    """
    _check_domain(mu0, r0, gamma, n_thermal)
    if n0 < 0:
        raise ValueError("occupation must be >= 0")
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t < 0):
        raise ValueError("time must be >= 0")
    with np.errstate(over="ignore"):
        # past the float range -gamma t is -inf, e = 0.0 and c = 1.0 exactly;
        # every other overflow keeps the caller's error state
        e = np.exp(-gamma * t)
        c = -np.expm1(-gamma * t)
    cosh_2r0 = math.cosh(2.0 * r0)
    inv_mu_inf = 1.0 + 2.0 * n_thermal
    rho = mu0 * inv_mu_inf
    rho_c = rho * c
    e_s, rho_c_s, mu0_s = e, rho_c, mu0
    # rho c <= rho and rho c e <= rho / 4: the rows need a look only where
    # these bounds pass the limits below
    if rho > _HUGE or rho * cosh_2r0 > 2.0 * _HUGE * _HUGE:
        # divide the sum by its largest term where that would overflow:
        # (rho c)^2 past _HUGE^2, or the cross term past _HUGE^2 / 2, whose
        # square root is read where rho c is not huge
        huge = rho_c > _HUGE
        cross = rho_c * e > 0.5 * _HUGE * (_HUGE / cosh_2r0)
        root_cross = np.sqrt(np.minimum(rho_c, _HUGE) * e) * (
            math.sqrt(2.0) * math.sqrt(cosh_2r0)
        )
        scale = np.where(huge, rho_c, np.where(cross, root_cross, 1.0))
        e_s, rho_c_s, mu0_s = e / scale, rho_c / scale, mu0 / scale
    inner = e_s * e_s + rho_c_s * rho_c_s + 2.0 * rho_c_s * e_s * cosh_2r0
    mu = np.minimum(mu0_s / np.sqrt(inner), 1.0)
    tau = e * _initial_depth(mu0, r0) - n_thermal * c
    cosh_2r = mu * (e * cosh_2r0 / mu0 + c * inv_mu_inf)
    return MetricTrajectory(
        t=t,
        mu=mu,
        tau=np.maximum(tau, 0.0),
        r=0.5 * np.arccosh(np.maximum(cosh_2r, 1.0)),
        occupation=e * n0 + c * n_thermal,
        t_min=purity_minimum_time(mu0, r0, gamma=gamma, n_thermal=n_thermal),
        t_tau0=classicality_time(mu0, r0, gamma=gamma, n_thermal=n_thermal),
    )
