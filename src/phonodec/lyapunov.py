"""Evolution of Gaussian states under a Lindblad channel.

First and second moments obey

    dd/dt     = A d
    dsigma/dt = A sigma + sigma A^T + D

with drift A and diffusion D.  For the constant single-mode thermal channel
(A = -gamma/2 I + w' Omega, D = gamma sigma_inf) the solution is closed
form.  ``evolve_numeric`` solves the same equations by an independent,
equally exact route for any constant A and D: one matrix exponential of
the vectorized equations (Van Loan's block form).
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
class LindbladChannel:
    """Drift/diffusion pair, with the thermal-channel scalars when applicable."""

    a: NDArray[np.float64]
    d: NDArray[np.float64]
    gamma: float | None = None
    omega_prime: float | None = None
    sigma_inf: NDArray[np.float64] | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if a.shape != d.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("drift and diffusion must be equal square matrices")
        if np.abs(d - d.T).max() > 1e-10 * max(np.abs(d).max(), 1.0):
            raise ValueError("diffusion matrix must be symmetric")
        d = 0.5 * (d + d.T)
        if np.linalg.eigvalsh(d).min() < -1e-10 * max(np.abs(d).max(), 1.0):
            raise ValueError("diffusion matrix must be positive semidefinite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)

    @property
    def is_thermal(self) -> bool:
        return self.gamma is not None and self.sigma_inf is not None


def thermal_channel(
    gamma: float,
    n_thermal: float,
    omega_prime: float,
) -> LindbladChannel:
    """Single-mode thermal channel: A = -gamma/2 I + w' Omega, D = gamma sigma_inf."""
    if gamma < 0 or n_thermal < 0:
        raise ValueError("gamma and thermal occupation must be >= 0")
    sigma_inf = (1.0 + 2.0 * n_thermal) * VACUUM_VARIANCE * np.eye(2)
    return LindbladChannel(
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
    state: GaussianState, channel: LindbladChannel, t: float
) -> GaussianState:
    """Exact state at time t under the constant single-mode thermal channel.

    d(t) = e^{-gamma t/2} R(t) d0
    sigma(t) = e^{-gamma t} R(t) sigma0 R^T(t) + (1 - e^{-gamma t}) sigma_inf
    """
    if t < 0:
        raise ValueError("time must be >= 0")
    if not channel.is_thermal:
        raise ValueError("closed form requires the single-mode thermal channel")
    decay = math.exp(-channel.gamma * t)
    rot = _rotation(channel.omega_prime, t)
    d_t = math.sqrt(decay) * rot @ state.d
    sigma_t = decay * (rot @ state.sigma @ rot.T) + (1.0 - decay) * channel.sigma_inf
    return GaussianState(d=d_t, sigma=sigma_t)


def fixed_point_residual(channel: LindbladChannel) -> float:
    """Max-norm of A sigma_inf + sigma_inf A^T + D (zero for the thermal channel)."""
    if channel.sigma_inf is None:
        raise ValueError("channel carries no asymptotic state")
    res = channel.a @ channel.sigma_inf + channel.sigma_inf @ channel.a.T + channel.d
    return float(np.abs(res).max())


def evolve_numeric(
    state: GaussianState,
    channel: LindbladChannel,
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
    The covariance is symmetrized and the uncertainty bound is enforced at
    every grid point.
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
