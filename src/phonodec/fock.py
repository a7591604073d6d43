"""Brute-force validator in a truncated number basis.

Solves the full master equation for the density matrix under the
two-operator thermal channel (c1 = sqrt(gamma1) b, c2 = sqrt(gamma2) b^dag)
exactly, one matrix exponential per diagonal of rho, and extracts purity
and phase-space moments, certifying the Gaussian fast path.  Dense
matrices only; intended for cutoffs up to ~80 and small squeezing
(r <= 1): the basis cost of validating r = 10 directly would be
astronomical, so the closed forms are checked here at small r and trusted
by structure at large r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._expm import expm
from .gaussian import KAPPA


def squeezed_vacuum_fock(r: float, n_cut: int) -> NDArray[np.float64]:
    """Number-basis amplitudes of the squeezed vacuum S(r)|0>.

    c_{2n} = (-tanh r)^n sqrt((2n)!) / (2^n n! sqrt(cosh r)), odd entries 0,
    via the stable ratio recurrence.  With this sign the first quadrature is
    the squeezed one, i.e. the covariance matches phase psi = pi of the
    Gaussian-state parameterization.  Requires sinh^2 r << n_cut; an
    unusable truncation (norm deficit > 1e-4) is an error.
    """
    if r < 0 or not math.isfinite(r):
        raise ValueError("squeezing must be finite and >= 0")
    if math.sinh(r) ** 2 > 0.1 * n_cut:
        raise ValueError("cutoff too small for this squeezing")
    c = np.zeros(n_cut + 1)
    c[0] = 1.0 / math.sqrt(math.cosh(r))
    th = math.tanh(r)
    for n in range(n_cut // 2):
        # c_{2n+2} / c_{2n}
        c[2 * n + 2] = -c[2 * n] * th * math.sqrt((2 * n + 1) * (2 * n + 2)) / (
            2 * (n + 1)
        )
    deficit = 1.0 - float(c @ c)
    if deficit > 1e-4:
        raise ValueError(f"cutoff too small: norm deficit {deficit:.3e}")
    return c


@dataclass(frozen=True)
class FockTrajectory:
    """Per-grid-point purity and phase-space moments, plus the final matrix."""

    t: NDArray[np.float64]
    purity: NDArray[np.float64]
    displacement: NDArray[np.float64]  # (n, 2)
    covariance: NDArray[np.float64]  # (n, 2, 2)
    occupation: NDArray[np.float64]
    final_rho: NDArray[np.complex128]


def _moments(rho: NDArray):
    n_levels = rho.shape[0]
    n = np.arange(n_levels, dtype=float)
    sq = np.sqrt(n)
    eb = complex(np.sum(sq[1:] * np.diagonal(rho, -1)))
    eb2 = complex(np.sum(sq[1:-1] * sq[2:] * np.diagonal(rho, -2)))
    en = float(np.real(np.sum(n * np.diagonal(rho))))
    d1 = eb.real / KAPPA
    d2 = eb.imag / KAPPA
    k2 = KAPPA * KAPPA
    s11 = (2.0 * eb2.real + 2.0 * en + 1.0) / (4.0 * k2) - d1 * d1
    s22 = (2.0 * en + 1.0 - 2.0 * eb2.real) / (4.0 * k2) - d2 * d2
    s12 = eb2.imag / (2.0 * k2) - d1 * d2
    return np.array([d1, d2]), np.array([[s11, s12], [s12, s22]]), en


def lindblad_step_integrate(
    rho0: NDArray,
    omega: float,
    gamma1: float,
    gamma2: float,
    t_grid,
) -> FockTrajectory:
    """Solve d rho/dt = -i w [n, rho] + gamma1 D[b] rho + gamma2 D[b^dag] rho.

    ``rho0`` is a Hermitian matrix on the number basis 0..n_cut, given at
    ``t_grid[0]``; its lower triangle is read.  The channel conserves
    m - n, so each diagonal rho[j+k, j] evolves on its own under a real
    tridiagonal generator times the phase e^{-i w k t}; one matrix
    exponential per diagonal propagates it exactly to every grid point, and
    the upper diagonals are the conjugates.  Raises on truncation leaks:
    the initial state must keep the population beyond 0.9 n_cut below
    1e-8, and the top-level population must stay below 1e-6 at every grid
    point.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError("rho must be a square matrix")
    n_cut = rho0.shape[0] - 1
    if gamma1 < 0 or gamma2 < 0:
        raise ValueError("rates must be >= 0")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")

    pops0 = np.real(np.diagonal(rho0))
    high = pops0[int(math.ceil(0.9 * n_cut)):].sum()
    if high > 1e-8:
        raise ValueError(
            f"initial population {high:.3e} beyond 0.9 n_cut exceeds 1e-8"
        )

    span = t_grid - t_grid[0]
    rho = np.zeros((t_grid.size, n_cut + 1, n_cut + 1), dtype=complex)
    for k in range(n_cut + 1):
        j = np.arange(n_cut + 1 - k)
        level = j + 0.5 * k
        root = np.sqrt((j[:-1] + k + 1.0) * (j[:-1] + 1.0))
        gen = (
            np.diag(-gamma1 * level - gamma2 * (level + 1.0))
            + np.diag(gamma1 * root, 1)
            + np.diag(gamma2 * root, -1)
        )
        diag = expm(gen * span[:, None, None]) @ rho0[j + k, j]
        diag *= np.exp(-1j * omega * k * span)[:, None]
        rho[:, j + k, j] = diag
        if k:
            rho[:, j, j + k] = diag.conj()

    top = np.real(rho[:, n_cut, n_cut])
    if np.any(top > 1e-6):
        i = int(np.argmax(top > 1e-6))
        raise RuntimeError(
            f"cutoff leak: top-level population {top[i]:.3e} at t = {t_grid[i]:.6e}"
        )
    moments = [_moments(r) for r in rho]
    return FockTrajectory(
        t=t_grid,
        purity=np.array([np.vdot(r, r).real for r in rho]),
        displacement=np.array([m[0] for m in moments]),
        covariance=np.array([m[1] for m in moments]),
        occupation=np.array([m[2] for m in moments]),
        final_rho=rho[-1],
    )
