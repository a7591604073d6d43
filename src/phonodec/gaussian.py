"""Phase-space representation of Gaussian bosonic states.

States are stored as a displacement vector d and covariance matrix sigma in
dimensionless quadratures x = (b + b^dag)/2k, p = i(b^dag - b)/2k with
[x, p] = i/(2 kappa^2).  The scale constant kappa is carried explicitly so
every formula stays convention-correct; the default is the quantum-optics
choice kappa = 1/sqrt(2) (vacuum variance 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

_UNCERTAINTY_SLACK = 1e-9  # relative clamp for numerical noise on the bound


@dataclass(frozen=True)
class SymplecticConvention:
    """Quadrature scale kappa and the symplectic form it goes with."""

    kappa: float = 1.0 / math.sqrt(2.0)

    def __post_init__(self):
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError("kappa must be positive and finite")

    def omega(self) -> NDArray[np.float64]:
        """Single-mode symplectic form [[0, 1], [-1, 0]]."""
        return np.array([[0.0, 1.0], [-1.0, 0.0]])

    @property
    def vacuum_variance(self) -> float:
        return 1.0 / (4.0 * self.kappa**2)


DEFAULT_CONVENTION = SymplecticConvention()


def symplectic_eigenvalues(sigma: NDArray[np.float64]) -> NDArray[np.float64]:
    """Symplectic spectrum of a single-mode covariance matrix: sqrt(det sigma)."""
    # det is the squared symplectic eigenvalue; avoids the eig round trip
    det = np.linalg.det(np.asarray(sigma, dtype=float))
    return np.array([math.sqrt(max(det, 0.0))])


@dataclass(frozen=True)
class GaussianState:
    """Single-mode Gaussian state: displacement (2,) and covariance (2, 2).

    Construction validates symmetry and the uncertainty bound
    det sigma >= 1/(4 kappa^2)^2; violations within a 1e-9 relative slack
    are treated as numerical noise.
    """

    d: NDArray[np.float64]
    sigma: NDArray[np.float64]
    convention: SymplecticConvention = field(default=DEFAULT_CONVENTION)

    def __post_init__(self):
        d = np.atleast_1d(np.array(self.d, dtype=float))  # copy: frozen below
        sigma = np.asarray(self.sigma, dtype=float)
        if d.shape != (2,):
            raise ValueError("displacement must be a real vector of length 2")
        if sigma.shape != (2, 2):
            raise ValueError("covariance must be a 2 x 2 matrix")
        if not np.all(np.isfinite(d)) or not np.all(np.isfinite(sigma)):
            raise ValueError("non-finite entries in state")
        scale = max(np.abs(sigma).max(), 1.0)
        if np.abs(sigma - sigma.T).max() > 1e-10 * scale:
            raise ValueError("covariance must be symmetric")
        sigma = 0.5 * sigma + 0.5 * sigma.T  # halves first: no overflow near max
        bound = self.convention.vacuum_variance
        # det check with a floor for the intrinsic cancellation noise of
        # strongly squeezed covariances (entries ~ e^{2r} while det ~ 1)
        det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] ** 2
        noise = 64.0 * np.finfo(float).eps * (
            abs(sigma[0, 0] * sigma[1, 1]) + sigma[0, 1] ** 2
        )
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
    def purity(self) -> float:
        """Tr rho^2 = 1/(4 kappa^2 s), at most 1."""
        s = symplectic_eigenvalues(self.sigma)
        mu = float(np.prod(1.0 / (4.0 * self.convention.kappa**2 * s)))
        return min(mu, 1.0)

    @property
    def occupation(self) -> float:
        """Mean quantum number, kappa^2 (Tr sigma + d.d) - 1/2."""
        k2 = self.convention.kappa**2
        return float(k2 * np.trace(self.sigma) + k2 * self.d @ self.d - 0.5)


@dataclass(frozen=True)
class SingleModeParams:
    """Williamson parameters of a single-mode state."""

    mu: float  # purity, in (0, 1]
    r: float  # squeezing magnitude >= 0
    psi: float  # squeezing phase in [0, 2 pi)
    occupation: float  # mean quantum number


def state_from_params(
    mu: float,
    r: float,
    psi: float = 0.0,
    d: NDArray[np.float64] | None = None,
    convention: SymplecticConvention = DEFAULT_CONVENTION,
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
    f = 1.0 / (4.0 * convention.kappa**2 * mu)
    sigma = f * np.array(
        [
            [em + 2.0 * sh * cp * cp, 2.0 * sh * sp * cp],
            [2.0 * sh * sp * cp, em + 2.0 * sh * sp * sp],
        ]
    )
    if d is None:
        d = np.zeros(2)
    return GaussianState(d=np.asarray(d, dtype=float), sigma=sigma, convention=convention)


def params_from_state(state: GaussianState) -> SingleModeParams:
    """Williamson parameters (mu, r, psi) plus occupation of a single-mode state.

    mu = 1/(4 kappa^2 s) with s = sqrt(det sigma); cosh 2r = Tr sigma / 2s;
    psi from atan2 on the off-diagonal, set to 0 for unsqueezed states.
    """
    sigma = state.sigma
    k2 = state.convention.kappa**2
    s = math.sqrt(max(sigma[0, 0] * sigma[1, 1] - sigma[0, 1] ** 2, 0.0))
    bound = state.convention.vacuum_variance
    if s < bound * (1.0 - _UNCERTAINTY_SLACK):
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


def thermal_state(
    n_thermal: float, convention: SymplecticConvention = DEFAULT_CONVENTION
) -> GaussianState:
    """Single-mode thermal state, sigma = (1 + 2 N) / (4 kappa^2) * I, d = 0."""
    if n_thermal < 0 or not math.isfinite(n_thermal):
        raise ValueError("thermal occupation must be >= 0")
    sigma = (1.0 + 2.0 * n_thermal) * convention.vacuum_variance * np.eye(2)
    return GaussianState(d=np.zeros(2), sigma=sigma, convention=convention)


def vacuum_state(convention: SymplecticConvention = DEFAULT_CONVENTION) -> GaussianState:
    return thermal_state(0.0, convention)
