"""Brute-force validator in a truncated number basis.

Solves the full master equation for the density matrix under the
two-operator thermal channel (c1 = sqrt(gamma1) b, c2 = sqrt(gamma2) b^dag)
exactly, stepping every diagonal of rho at once from grid point to grid
point with one stacked matrix exponential per distinct step, and reads
purity and moments off them, certifying the Gaussian fast path.  Dense
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
    tridiagonal generator times the phase e^{-i w k t}.  The generators,
    zero-padded to the full basis, form one stack; one stacked exponential
    per distinct value of ``np.diff(t_grid)`` advances every diagonal
    exactly from one grid point to the next, so the cost grows with the
    number of distinct steps (a linspace grid has a few).  The upper
    diagonals are the conjugates, so the purity and the moments of every
    grid point are read off the evolved lower diagonals, and rho itself is
    built only for ``final_rho``.  Raises on truncation leaks:
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

    # gen[k] is diagonal k's generator, zero-padded to the full basis: its
    # exponential is the block's own plus an identity on the padding, whose
    # entries of the state are zero
    size = n_cut + 1
    k = np.arange(size)[:, None]
    j = np.arange(size)
    inside = j + k <= n_cut  # rho[j+k, j] lies in the basis
    level = j + 0.5 * k
    root = np.sqrt((j[:-1] + k + 1.0) * (j[:-1] + 1.0))
    gen = np.zeros((size, size, size))
    gen[:, j, j] = np.where(inside, -gamma1 * level - gamma2 * (level + 1.0), 0.0)
    gen[:, j[:-1], j[1:]] = np.where(inside[:, 1:], gamma1 * root, 0.0)
    gen[:, j[1:], j[:-1]] = np.where(inside[:, 1:], gamma2 * root, 0.0)

    # the generators are real: real and imaginary parts ride as two columns
    steps = np.diff(t_grid).tolist()
    propagator = {h: expm(gen * h) for h in set(steps)}
    diags = np.empty((t_grid.size, size, size), dtype=complex)
    diags[0] = np.where(inside, rho0[np.minimum(j + k, n_cut), j], 0.0)
    parts = diags.view(float).reshape(t_grid.size, size, size, 2)
    for i, h in enumerate(steps):
        np.matmul(propagator[h], parts[i], out=parts[i + 1])
    span = t_grid - t_grid[0]
    diags *= np.exp(-1j * omega * np.arange(size) * span[:, None])[:, :, None]

    # every grid point's moments, off the lower diagonals at once
    top = np.real(diags[:, 0, n_cut])
    if np.any(top > 1e-6):
        i = int(np.argmax(top > 1e-6))
        raise RuntimeError(
            f"cutoff leak: top-level population {top[i]:.3e} at t = {t_grid[i]:.6e}"
        )
    sq = np.sqrt(j)
    eb = np.sum(sq[1:] * diags[:, 1, :-1], axis=-1)  # sum sqrt(j+1) rho_{j+1,j}
    eb2 = np.sum(sq[1:-1] * sq[2:] * diags[:, 2, :-2], axis=-1)
    en = np.real(np.sum(j * diags[:, 0], axis=-1))
    d1 = eb.real / KAPPA
    d2 = eb.imag / KAPPA
    k2 = KAPPA * KAPPA
    s11 = (2.0 * eb2.real + 2.0 * en + 1.0) / (4.0 * k2) - d1 * d1
    s22 = (2.0 * en + 1.0 - 2.0 * eb2.real) / (4.0 * k2) - d2 * d2
    s12 = eb2.imag / (2.0 * k2) - d1 * d2
    # Tr rho^2 = sum |rho_mn|^2; a lower diagonal stands for its conjugate too
    squares = diags.real**2 + diags.imag**2
    purity = np.sum(np.where(k > 0, 2.0, 1.0) * squares, axis=(1, 2))

    rho = np.zeros((size, size), dtype=complex)
    kk, jj = np.nonzero(inside)
    rho[jj, jj + kk] = diags[-1, kk, jj].conj()
    rho[jj + kk, jj] = diags[-1, kk, jj]  # the main diagonal as evolved
    return FockTrajectory(
        t=t_grid,
        purity=purity,
        displacement=np.stack((d1, d2), axis=-1),
        covariance=np.stack((s11, s12, s12, s22), axis=-1).reshape(-1, 2, 2),
        occupation=en,
        final_rho=rho,
    )
