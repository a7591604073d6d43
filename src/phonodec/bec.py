"""Uniform-condensate microphysics.

Coupling constant, speed of sound / density duality, Bogoliubov dispersion
and transformation coefficients, and the thermal occupation of
quasi-particle modes.  Everything is SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import HBAR, K_B

ZETA_3_2 = 2.612375348685488  # Riemann zeta(3/2)


@dataclass(frozen=True)
class CondensateParams:
    """Physical parameters of a uniform three-dimensional condensate.

    Exactly one of ``speed_of_sound`` / ``density`` must be supplied; the
    other is derived from c_s^2 = g n / m with g = 4 pi hbar^2 a / m.

    Parameters
    ----------
    mass:
        Atomic mass in kg.
    scattering_length:
        s-wave scattering length in m.
    temperature:
        Temperature in K (>= 0).
    speed_of_sound:
        Speed of sound in m/s.
    density:
        Number density in m^-3.
    """

    mass: float
    scattering_length: float
    temperature: float
    speed_of_sound: float = field(default=0.0)
    density: float = field(default=0.0)

    def __post_init__(self):
        if self.mass <= 0 or self.scattering_length <= 0:
            raise ValueError("mass and scattering length must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        given_c = self.speed_of_sound > 0
        given_n = self.density > 0
        if given_c == given_n:
            raise ValueError(
                "exactly one of speed_of_sound / density must be supplied"
            )
        g = self.coupling
        if given_c:
            object.__setattr__(
                self, "density", self.mass * self.speed_of_sound**2 / g
            )
        else:
            object.__setattr__(
                self, "speed_of_sound", math.sqrt(g * self.density / self.mass)
            )

    @property
    def coupling(self) -> float:
        """Contact coupling g = 4 pi hbar^2 a / m, in J m^3."""
        return 4.0 * math.pi * HBAR**2 * self.scattering_length / self.mass

    @property
    def chemical_potential(self) -> float:
        """mu = g n = m c_s^2, in J."""
        return self.mass * self.speed_of_sound**2

    @property
    def critical_temperature(self) -> float:
        """Ideal-gas condensation temperature in K,
        (2 pi hbar^2 / (m k_B)) (n / zeta(3/2))^(2/3)."""
        prefactor = 2.0 * math.pi * HBAR**2 / (self.mass * K_B)
        return prefactor * (self.density / ZETA_3_2) ** (2.0 / 3.0)


def dispersion(k, params: CondensateParams):
    """Bogoliubov frequency omega(k) = sqrt((c_s k)^2 + (hbar k^2 / 2m)^2).

    ``k`` may be an array, as may the arguments of ``group_velocity``,
    ``invert_dispersion`` and ``bogoliubov_uv``; each returns the same shape.
    """
    if np.min(k) <= 0:
        raise ValueError("wavenumber must be positive")
    return np.hypot(params.speed_of_sound * k, HBAR * k * k / (2.0 * params.mass))


def group_velocity(k, params: CondensateParams):
    """d omega / d k on the Bogoliubov branch."""
    c2 = params.speed_of_sound**2
    h2m = HBAR / (2.0 * params.mass)
    return k * (c2 + 2.0 * h2m * h2m * k * k) / dispersion(k, params)


def invert_dispersion(omega, params: CondensateParams):
    """Wavenumber of the mode with frequency ``omega``.

    Closed-form root of the quadratic in k^2, written so the phonon limit
    does not suffer cancellation.
    """
    if np.min(omega) <= 0:
        raise ValueError("frequency must be positive")
    c2 = params.speed_of_sound**2
    h2m = HBAR / (2.0 * params.mass)
    # k^2 = 2 w^2 / (c^2 + sqrt(c^4 + 4 (hbar/2m)^2 w^2))
    k2 = 2.0 * omega**2 / (c2 + np.hypot(c2, 2.0 * h2m * omega))
    return np.sqrt(k2)


def bogoliubov_uv(k, params: CondensateParams):
    """Transformation coefficients (u_k, v_k), with u > 0 > v and u^2 - v^2 = 1."""
    omega = dispersion(k, params)
    free = HBAR**2 * k * k / (2.0 * params.mass)
    mu = params.chemical_potential
    e = HBAR * omega
    u = np.sqrt((free + mu + e) / (2.0 * e))
    # free + mu - e -> mu^2 / 2e > 0 at large k, where it can round below 0
    v = -np.sqrt(np.maximum(free + mu - e, 0.0) / (2.0 * e))
    return u, v


def beta_of(omega: float, temperature: float) -> float:
    """Dimensionless inverse temperature hbar*omega / (k_B T); inf at T = 0."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0.0:
        return math.inf
    return HBAR * omega / (K_B * temperature)


def thermal_occupation(omega, temperature: float):
    """Bose-Einstein occupation 1 / (e^beta - 1); 0 above beta = 700 (e^700
    overflows anyway) and so exactly 0 at T = 0.

    A scalar ``omega`` must be positive and gives a float.  An array gives
    an array of its shape; its entries are not checked, as the collision
    integrands pass only positive frequencies and call this hundreds of
    times per integral.  A scalar takes libm's expm1 and an array numpy's:
    the two differ by an ulp on a few percent of arguments, and each keeps
    the bits of the outputs computed with it.
    """
    if np.ndim(omega) == 0:
        if omega <= 0:
            raise ValueError("frequency must be positive")
        beta = beta_of(omega, temperature)
        return 0.0 if beta > 700.0 else 1.0 / math.expm1(beta)
    if temperature == 0.0:  # beta_of's inf, in the array's shape
        return np.zeros_like(omega)
    beta = beta_of(omega, temperature)
    return np.where(beta > 700.0, 0.0, 1.0 / np.expm1(np.minimum(beta, 700.0)))
