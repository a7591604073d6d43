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


def _decay(gamma: float, t):
    """(t, e, 1 - e) with e = e^{-gt}, for times t >= 0, scalar or array."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be >= 0")
    e = np.exp(-gamma * t)
    return t, e, 1.0 - e


def _check_occupations(n0: float, n_thermal: float, gamma: float) -> None:
    if n0 < 0 or n_thermal < 0:
        raise ValueError("occupations must be >= 0")
    if gamma < 0:
        raise ValueError("damping rate must be >= 0")


def _scalar_or_array(out):
    return float(out) if out.ndim == 0 else out


# Each formula once, on e = e^{-gt} and c = 1 - e; the public evolutions
# and metric_trajectory both call these.
def _purity(mu0, r0, mu_inf, e, c):
    rho = mu0 / mu_inf
    inner = e * e + rho * rho * c**2 + 2.0 * rho * e * c * math.cosh(2.0 * r0)
    return np.minimum(mu0 / np.sqrt(inner), 1.0)  # clamp rounding above a pure state


def _depth(mu0, r0, mu_inf, e):
    raw = (e * (1.0 - (mu_inf / mu0) * math.exp(-2.0 * r0)) + mu_inf - 1.0) / (2.0 * mu_inf)
    return np.maximum(raw, 0.0)


def _squeezing(mu0, r0, mu_inf, e, c, mu_t):
    ch = mu_t * (e * math.cosh(2.0 * r0) / mu0 + c / mu_inf)
    return 0.5 * np.arccosh(np.maximum(ch, 1.0))  # clamp arccosh noise near r = 0


def _occupation(n0, n_thermal, e, c):
    return e * n0 + c * n_thermal


def purity_evolution(mu0: float, r0: float, mu_inf: float, gamma: float, t):
    """Purity mu(t); accepts scalar or array times.

    mu(t) = mu0 [e^{-2gt} + (mu0/mu_inf)^2 (1-e^{-gt})^2
                 + 2 (mu0/mu_inf) e^{-gt}(1-e^{-gt}) cosh 2 r0]^{-1/2}
    """
    _check_domain(mu0, r0, mu_inf, gamma)
    _, e, c = _decay(gamma, t)
    return _scalar_or_array(_purity(mu0, r0, mu_inf, e, c))


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


def nonclassical_depth_evolution(mu0: float, r0: float, mu_inf: float, gamma: float, t):
    """Nonclassical depth tau(t), clamped at zero once the state is classical.

    tau(t) = max{ (1/2 mu_inf)[e^{-gt}(1 - (mu_inf/mu0) e^{-2 r0})
                                + mu_inf - 1], 0 }
    """
    _check_domain(mu0, r0, mu_inf, gamma)
    _, e, _ = _decay(gamma, t)
    return _scalar_or_array(_depth(mu0, r0, mu_inf, e))


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


def squeezing_evolution(mu0: float, r0: float, mu_inf: float, gamma: float, t):
    """Squeezing magnitude r(t) from cosh 2r(t) = mu(t) [...]; phase is constant."""
    _check_domain(mu0, r0, mu_inf, gamma)
    _, e, c = _decay(gamma, t)
    mu_t = _purity(mu0, r0, mu_inf, e, c)
    return _scalar_or_array(_squeezing(mu0, r0, mu_inf, e, c, mu_t))


def occupation_evolution(n0: float, n_thermal: float, gamma: float, t):
    """Mean occupation N(t) = e^{-gt} N0 + (1 - e^{-gt}) N_th."""
    _check_occupations(n0, n_thermal, gamma)
    _, e, c = _decay(gamma, t)
    return _scalar_or_array(_occupation(n0, n_thermal, e, c))


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
    """Evaluate all four metric evolutions on a common grid.

    e^{-gt} and its complement are computed once, and mu(t) once for both
    the purity and the squeezing column; each column equals its public
    evolution bit for bit.
    """
    _check_domain(mu0, r0, mu_inf, gamma)
    t, e, c = _decay(gamma, t_grid)
    _check_occupations(n0, n_thermal, gamma)
    mu = _purity(mu0, r0, mu_inf, e, c)
    tau = _depth(mu0, r0, mu_inf, e)
    r = _squeezing(mu0, r0, mu_inf, e, c, mu)
    return MetricTrajectory(
        t=t,
        mu=np.atleast_1d(mu),
        tau=np.atleast_1d(tau),
        r=np.atleast_1d(r),
        occupation=np.atleast_1d(_occupation(n0, n_thermal, e, c)),
        mu_inf=mu_inf,
        t_min=purity_minimum_time(mu0, r0, mu_inf, gamma),
        t_tau0=classicality_time(mu0, r0, mu_inf, gamma),
    )
