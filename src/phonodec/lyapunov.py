"""Evolution of Gaussian states under the single-mode thermal channel.

First and second moments obey

    dd/dt     = A d
    dsigma/dt = A sigma + sigma A^T + D

with drift A = -gamma/2 I + w' Omega and diffusion D = gamma sigma_inf.
The solution is closed form.  ``evolve_numeric`` solves the same equations
by an independent, equally exact route for any constant A and D: one
matrix exponential of the vectorized equations (Van Loan's block form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from ._expm import expm
from .gaussian import OMEGA, VACUUM_VARIANCE, GaussianState


@dataclass(frozen=True)
class ThermalChannel:
    """The thermal channel's scalars, asymptotic covariance, drift and diffusion."""

    gamma: float
    omega_prime: float
    sigma_inf: NDArray[np.float64]
    a: NDArray[np.float64]
    d: NDArray[np.float64]


def thermal_channel(
    gamma: float,
    n_thermal: float,
    omega_prime: float,
) -> ThermalChannel:
    """Single-mode thermal channel: A = -gamma/2 I + w' Omega, D = gamma sigma_inf."""
    if gamma < 0 or n_thermal < 0:
        raise ValueError("gamma and thermal occupation must be >= 0")
    sigma_inf = (1.0 + 2.0 * n_thermal) * VACUUM_VARIANCE * np.eye(2)
    return ThermalChannel(
        a=-0.5 * gamma * np.eye(2) + omega_prime * OMEGA,
        d=gamma * sigma_inf,
        gamma=gamma,
        omega_prime=omega_prime,
        sigma_inf=sigma_inf,
    )


def _rotation(omega_prime: float, t: float) -> NDArray[np.float64]:
    c, s = math.cos(omega_prime * t), math.sin(omega_prime * t)
    return np.array([[c, s], [-s, c]])


def evolve_closed_form(
    state: GaussianState, channel: ThermalChannel, t: float
) -> GaussianState:
    """Exact state at time t under the constant single-mode thermal channel.

    d(t) = e^{-gamma t/2} R(t) d0
    sigma(t) = e^{-gamma t} R(t) sigma0 R^T(t) + (1 - e^{-gamma t}) sigma_inf
    """
    if t < 0:
        raise ValueError("time must be >= 0")
    decay = math.exp(-channel.gamma * t)
    rot = _rotation(channel.omega_prime, t)
    d_t = math.sqrt(decay) * rot @ state.d
    sigma_t = decay * (rot @ state.sigma @ rot.T) + (1.0 - decay) * channel.sigma_inf
    return GaussianState(d=d_t, sigma=sigma_t)


def fixed_point_residual(channel: ThermalChannel) -> float:
    """Max-norm of A sigma_inf + sigma_inf A^T + D (zero for the thermal channel)."""
    res = channel.a @ channel.sigma_inf + channel.sigma_inf @ channel.a.T + channel.d
    return float(np.abs(res).max())


def evolve_numeric(
    state: GaussianState,
    channel: ThermalChannel,
    t_grid: Sequence[float],
) -> list[GaussianState]:
    """Solve the moment equations over ``t_grid`` (strictly increasing).

    Van Loan's block exponential (IEEE Trans. Autom. Control 23, 395
    (1978)): with K = I (x) A + A (x) I the generator of the vectorized
    covariance, the augmented generator

        [[K, vec D, 0],
         [0,   0,   0],
         [0,   0,   A]]

    maps (vec sigma0, 1, d0) to (vec sigma(t), 1, d(t)) under its
    exponential, so one stacked Padé exponential over ``t - t_grid[0]``
    gives every grid point exactly, for any constant drift and diffusion.
    It reads only ``channel.a`` and ``channel.d``.  The covariance is
    symmetrized and the uncertainty bound is enforced at every grid point.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    a = channel.a
    n = a.shape[0]
    m = n * n
    gen = np.zeros((m + 1 + n, m + 1 + n))
    gen[:m, :m] = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    gen[:m, m] = channel.d.ravel()
    gen[m + 1:, m + 1:] = a
    start = np.concatenate([state.sigma.ravel(), [1.0], state.d])
    moments = expm(gen * (t_grid - t_grid[0])[:, None, None]) @ start

    out: list[GaussianState] = []
    for time, row in zip(t_grid, moments):
        sigma = row[:m].reshape(n, n)
        try:
            out.append(GaussianState(d=row[m + 1:], sigma=0.5 * (sigma + sigma.T)))
        except ValueError as exc:
            raise RuntimeError(
                f"integration left the physical state space at t = {time:.6e}: {exc}"
            ) from exc
    return out
