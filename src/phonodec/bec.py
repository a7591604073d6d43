"""Uniform-condensate microphysics.

Coupling constant, speed of sound / density duality, the rate scale of the
collision integrals, and the thermal occupation of a mode and the purity
of its thermal state.  Everything is SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import HBAR, K_B

ZETA_3_2 = 2.612375348685488  # Riemann zeta(3/2)


@dataclass(frozen=True)
class CondensateParams:
    """Physical parameters of a uniform three-dimensional condensate.

    Exactly one of ``speed_of_sound`` / ``density`` must be supplied; the
    other is derived from c_s^2 = g n / m with g = 4 pi hbar^2 a / m, where
    c_s^2 is the product c_s c_s (inf, not OverflowError, past the float range).

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
            object.__setattr__(self, "density", self.chemical_potential / g)
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
        return self.mass * (self.speed_of_sound * self.speed_of_sound)

    @property
    def critical_temperature(self) -> float:
        """Ideal-gas condensation temperature in K,
        (2 pi hbar^2 / (m k_B)) (n / zeta(3/2))^(2/3)."""
        prefactor = 2.0 * math.pi * HBAR**2 / (self.mass * K_B)
        return prefactor * (self.density / ZETA_3_2) ** (2.0 / 3.0)

    @property
    def rate_scale(self) -> float:
        """s = (mu / hbar) sqrt(n a^3) in 1/s, the scale of every damping
        rate: each is s times a function of k_B T / mu and hbar w / mu.

        sqrt(n a^3) is taken as m c_s a / (2 sqrt(pi) hbar), which follows
        from n = m c_s^2 / g and does not cube a.
        """
        root_gas = self.mass * self.speed_of_sound * self.scattering_length / HBAR
        return self.chemical_potential / HBAR * root_gas / (2.0 * math.sqrt(math.pi))


def beta_of(omega: float, temperature: float) -> float:
    """Dimensionless inverse temperature hbar*omega / (k_B T); inf at T = 0."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0.0:
        return math.inf
    return HBAR * omega / (K_B * temperature)


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1 / (e^beta - 1) of a mode of positive
    frequency ``omega``; 0 above beta = 700 (e^700 overflows anyway) and so
    exactly 0 at T = 0."""
    if omega <= 0:
        raise ValueError("frequency must be positive")
    beta = beta_of(omega, temperature)
    return 0.0 if beta > 700.0 else 1.0 / math.expm1(beta)


def thermal_purity(n_thermal: float) -> float:
    """Purity 1 / (1 + 2 n) of the thermal state of mean occupation ``n``."""
    return 1.0 / (1.0 + 2.0 * n_thermal)
