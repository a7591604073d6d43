"""Single-mode Gaussian bosonic states in phase space.

A state is a displacement vector d and a covariance matrix sigma in the
dimensionless quadratures x = (b + b^dag)/2k, p = i(b^dag - b)/2k with
[x, p] = i/(2 k^2).  The scale is fixed at the quantum-optics choice
k = ``KAPPA`` = 1/sqrt(2) (vacuum variance 1/2).  Formulas are written in
``KAPPA`` rather than in the exact 1/2 of k^2: in floating point k^2 is
0.4999999999999999, and the output bytes are pinned to that arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

KAPPA = 1.0 / math.sqrt(2.0)
VACUUM_VARIANCE = 1.0 / (4.0 * KAPPA**2)
OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])  # single-mode symplectic form
OMEGA.setflags(write=False)

_UNCERTAINTY_SLACK = 1e-9  # relative clamp for numerical noise on the bound
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GaussianState:
    """Single-mode Gaussian state: displacement (2,) and covariance (2, 2).

    Construction validates symmetry, a positive diagonal and the
    uncertainty bound det sigma >= 1/(4 kappa^2)^2; bound violations within
    a 1e-9 relative slack are treated as numerical noise.  A covariance
    whose determinant leaves the float range raises ``OverflowError``.
    """

    d: NDArray[np.float64]
    sigma: NDArray[np.float64]

    def __post_init__(self):
        d = np.atleast_1d(np.array(self.d, dtype=float))  # copy: frozen below
        sigma = np.asarray(self.sigma, dtype=float)
        if d.shape != (2,):
            raise ValueError("displacement must be a real vector of length 2")
        if sigma.shape != (2, 2):
            raise ValueError("covariance must be a 2 x 2 matrix")
        # the checks run on Python floats: numpy reductions over a 2 x 2
        # array cost more than the arithmetic
        (s00, s01), (s10, s11) = sigma.tolist()
        if not all(map(math.isfinite, (*d.tolist(), s00, s01, s10, s11))):
            raise ValueError("non-finite entries in state")
        scale = max(abs(s00), abs(s01), abs(s10), abs(s11), 1.0)
        if abs(s01 - s10) > 1e-10 * scale:
            raise ValueError("covariance must be symmetric")
        # 0.5 sigma + 0.5 sigma^T, halves first: no overflow near max
        s00, s11 = 0.5 * s00 + 0.5 * s00, 0.5 * s11 + 0.5 * s11
        s01 = 0.5 * s01 + 0.5 * s10
        sigma = np.array([[s00, s01], [s01, s11]])
        if s00 <= 0.0:  # with det sigma > 0 below, s11 > 0 too
            raise ValueError("covariance must be positive definite")
        bound = VACUUM_VARIANCE
        # det check with a floor for the intrinsic cancellation noise of
        # strongly squeezed covariances (entries ~ e^{2r} while det ~ 1);
        # ** is libm's pow, as numpy's, and raises OverflowError itself
        diag, off = s00 * s11, s01**2
        det = diag - off
        noise = 64.0 * _EPS * (abs(diag) + off)
        if not math.isfinite(noise):
            raise OverflowError("det sigma overflows")
        if det < bound * bound * (1.0 - 2.0 * _UNCERTAINTY_SLACK) - noise:
            raise ValueError(
                f"uncertainty bound violated: det sigma = {det:.6e}"
                f" < {bound * bound:.6e}"
            )
        d.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "sigma", sigma)

    @property
    def occupation(self) -> float:
        """Mean quantum number, kappa^2 (Tr sigma + d.d) - 1/2."""
        k2 = KAPPA**2
        return float(k2 * np.trace(self.sigma) + k2 * self.d @ self.d - 0.5)


def state_from_params(
    mu: float,
    r: float,
    psi: float = 0.0,
    d: NDArray[np.float64] | None = None,
) -> GaussianState:
    """Single-mode state with purity mu, squeezing r e^{i psi}, displacement d.

    sigma = 1/(4 kappa^2 mu) [[ch + sh cos psi, sh sin psi],
                              [sh sin psi, ch - sh cos psi]]
    with ch = cosh 2r, sh = sinh 2r.
    """
    if not (0.0 < mu <= 1.0) or not math.isfinite(mu):
        raise ValueError("purity must be in (0, 1]")
    if not (r >= 0.0 and math.isfinite(r)) or not math.isfinite(psi):
        raise ValueError("squeezing parameters must be finite, r >= 0")
    # cancellation-free form of ch +- sh cos(psi): the squeezed variance is
    # e^{-2r} + 2 sh sin^2(psi/2), exact even at large r where ch - sh
    # computed directly would lose the e^{-2r} remainder
    sh = math.sinh(2.0 * r)
    em = math.exp(-2.0 * r)
    cp, sp = math.cos(0.5 * psi), math.sin(0.5 * psi)
    f = 1.0 / (4.0 * KAPPA**2 * mu)
    sigma = f * np.array(
        [
            [em + 2.0 * sh * cp * cp, 2.0 * sh * sp * cp],
            [2.0 * sh * sp * cp, em + 2.0 * sh * sp * sp],
        ]
    )
    if d is None:
        d = np.zeros(2)
    return GaussianState(d=np.asarray(d, dtype=float), sigma=sigma)
