"""Evolution of Gaussian states under a Lindblad channel.

First and second moments obey

    dd/dt     = A d
    dsigma/dt = A sigma + sigma A^T + D

with drift A and diffusion D.  For the constant single-mode thermal channel
(A = -gamma/2 I + w' Omega, D = gamma sigma_inf) the solution is closed
form; for time-dependent coefficients the differential Lyapunov equation is
integrated numerically (classic fourth-order steps with step-halving error
control).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .gaussian import DEFAULT_CONVENTION, GaussianState, SymplecticConvention


@dataclass(frozen=True)
class LindbladChannel:
    """Drift/diffusion pair, with the thermal-channel scalars when applicable."""

    a: NDArray[np.float64]
    d: NDArray[np.float64]
    convention: SymplecticConvention = field(default=DEFAULT_CONVENTION)
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
    convention: SymplecticConvention = DEFAULT_CONVENTION,
) -> LindbladChannel:
    """Single-mode thermal channel: A = -gamma/2 I + w' Omega, D = gamma sigma_inf."""
    if gamma < 0 or n_thermal < 0:
        raise ValueError("gamma and thermal occupation must be >= 0")
    omega = convention.omega()
    sigma_inf = (1.0 + 2.0 * n_thermal) * convention.vacuum_variance * np.eye(2)
    return LindbladChannel(
        a=-0.5 * gamma * np.eye(2) + omega_prime * omega,
        d=gamma * sigma_inf,
        convention=convention,
        gamma=gamma,
        omega_prime=omega_prime,
        sigma_inf=sigma_inf,
    )


def channel_from_lindblad_ops(
    c_matrix: NDArray[np.complex128],
    convention: SymplecticConvention = DEFAULT_CONVENTION,
) -> LindbladChannel:
    """Single-mode channel from jump operators c_i = C_ij x_j.

    D = Omega Re(C^dag C) Omega^T / (4 kappa^4)
    A = Omega Im(C^dag C) / (2 kappa^2)

    The free rotation is not included: add w' Omega to the drift for it.
    """
    c = np.atleast_2d(np.asarray(c_matrix, dtype=complex))
    if c.shape[1] != 2:
        raise ValueError("C must have two columns, one per quadrature")
    omega = convention.omega()
    gram = c.conj().T @ c
    kappa2 = convention.kappa**2
    diffusion = omega @ np.real(gram) @ omega.T / (4.0 * kappa2**2)
    drift = omega @ np.imag(gram) / (2.0 * kappa2)
    return LindbladChannel(a=drift, d=diffusion, convention=convention)


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
    return GaussianState(d=d_t, sigma=sigma_t, convention=state.convention)


def fixed_point_residual(channel: LindbladChannel) -> float:
    """Max-norm of A sigma_inf + sigma_inf A^T + D (zero for the thermal channel)."""
    if channel.sigma_inf is None:
        raise ValueError("channel carries no asymptotic state")
    res = channel.a @ channel.sigma_inf + channel.sigma_inf @ channel.a.T + channel.d
    return float(np.abs(res).max())


ChannelLike = LindbladChannel | Callable[[float], LindbladChannel]


def evolve_numeric(
    state: GaussianState,
    channel: ChannelLike,
    t_grid: Sequence[float],
    step_tol: float = 1e-10,
) -> list[GaussianState]:
    """Integrate the moment equations over ``t_grid`` (strictly increasing).

    ``channel`` is a constant LindbladChannel or a callable t -> channel.
    Classic fourth-order steps; each step is halved and re-taken until the
    full-step/half-step discrepancy is below ``step_tol`` relative to the
    covariance scale.  The covariance is re-symmetrized after every step and
    the uncertainty bound is enforced at every grid point.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    chan = channel if callable(channel) else (lambda _t: channel)

    def rhs(t: float, d: NDArray, sigma: NDArray):
        ch = chan(t)
        return ch.a @ d, ch.a @ sigma + sigma @ ch.a.T + ch.d

    def rk4(t: float, d: NDArray, sigma: NDArray, h: float):
        k1d, k1s = rhs(t, d, sigma)
        k2d, k2s = rhs(t + 0.5 * h, d + 0.5 * h * k1d, sigma + 0.5 * h * k1s)
        k3d, k3s = rhs(t + 0.5 * h, d + 0.5 * h * k2d, sigma + 0.5 * h * k2s)
        k4d, k4s = rhs(t + h, d + h * k3d, sigma + h * k3s)
        d_new = d + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        s_new = sigma + (h / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        return d_new, s_new

    d = state.d.copy()
    sigma = state.sigma.copy()
    out: list[GaussianState] = []
    t = float(t_grid[0])

    def emit(time: float):
        try:
            out.append(
                GaussianState(d=d.copy(), sigma=0.5 * (sigma + sigma.T),
                              convention=state.convention)
            )
        except ValueError as exc:
            raise RuntimeError(
                f"integration left the physical state space at t = {time:.6e}: {exc}"
            ) from exc

    emit(t)
    span = float(t_grid[-1] - t_grid[0]) if t_grid.size > 1 else 0.0
    h = span / 100.0 if span else 0.0

    for t_next in t_grid[1:]:
        while t < t_next:
            h = min(h, t_next - t)
            if h < span * 1e-14:
                raise RuntimeError("step size underflow in Lyapunov integration")
            while True:
                d_full, s_full = rk4(t, d, sigma, h)
                d_h1, s_h1 = rk4(t, d, sigma, 0.5 * h)
                d_half, s_half = rk4(t + 0.5 * h, d_h1, s_h1, 0.5 * h)
                scale = max(np.abs(s_half).max(), np.abs(d_half).max(), 1.0)
                err = max(
                    np.abs(s_full - s_half).max(), np.abs(d_full - d_half).max()
                ) / scale
                if err <= step_tol:
                    break
                h *= max(0.9 * (step_tol / err) ** 0.2, 0.2)
                if h < span * 1e-14:
                    raise RuntimeError("step size underflow in Lyapunov integration")
            t += h
            d, sigma = d_half, 0.5 * (s_half + s_half.T)
            h *= min(0.9 * (step_tol / err) ** 0.2, 5.0) if err > 0 else 2.0
        t = float(t_next)
        emit(t)
    return out
