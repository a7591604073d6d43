"""Williamson parameters and purity of a single-mode state, read off sigma.

A reference route independent of the closed-form metrics: the tests
evolve a covariance and compare what this extraction reads off it with
``decoherence``'s formulas and with ``state_from_params``.
"""

import math
from dataclasses import dataclass

import numpy as np

from phonodec.gaussian import _UNCERTAINTY_SLACK, KAPPA, VACUUM_VARIANCE, GaussianState


@dataclass(frozen=True)
class SingleModeParams:
    """Williamson parameters of a single-mode state."""

    mu: float  # purity, in (0, 1]
    r: float  # squeezing magnitude >= 0
    psi: float  # squeezing phase in [0, 2 pi)
    occupation: float  # mean quantum number


def params_from_state(state: GaussianState) -> SingleModeParams:
    """Williamson parameters (mu, r, psi) plus occupation of a single-mode state.

    mu = 1/(4 kappa^2 s) with s = sqrt(det sigma); cosh 2r = Tr sigma / 2s;
    psi from atan2 on the off-diagonal, set to 0 for unsqueezed states.
    """
    sigma = state.sigma
    k2 = KAPPA**2
    s = math.sqrt(max(sigma[0, 0] * sigma[1, 1] - sigma[0, 1] ** 2, 0.0))
    if s < VACUUM_VARIANCE * (1.0 - _UNCERTAINTY_SLACK):
        raise ValueError("state violates the uncertainty bound")
    mu = min(1.0 / (4.0 * k2 * s), 1.0)
    ch = max(np.trace(sigma) / (2.0 * s), 1.0)
    r = 0.5 * math.acosh(ch)
    if r < 1e-12:
        psi = 0.0  # phase undefined for unsqueezed states
    else:
        psi = math.atan2(2.0 * sigma[0, 1], sigma[0, 0] - sigma[1, 1]) % (2.0 * math.pi)
    occ = k2 * float(np.trace(sigma)) + k2 * float(state.d @ state.d) - 0.5
    return SingleModeParams(mu=mu, r=r, psi=psi, occupation=occ)


def purity(state: GaussianState) -> float:
    """Tr rho^2 = 1/(4 kappa^2 s) with s = sqrt(det sigma), at most 1.

    det sigma is read from the rounded entries, so a state squeezed by r
    off the squeezing axes loses about cosh^2(2r) eps relative accuracy
    (at r = 12 the det rounds to <= 0 and the purity reads 1).
    """
    # numpy scalars: a det that rounds to <= 0 gives inf, clamped to 1
    s = np.sqrt(max(np.linalg.det(state.sigma), 0.0))
    return min(float(1.0 / (4.0 * KAPPA**2 * s)), 1.0)
