"""Phonon damping rates for a uniform three-dimensional condensate.

Three ingredients:

* the cubic interaction vertices built from the Bogoliubov coefficients,
* closed-form rates in the three temperature regimes (spontaneous decay
  at k_B T << hbar w_q, and the two collisional regimes at high and low
  temperature relative to the chemical potential),
* the full collision integrals, with the energy delta resolved on the
  Bogoliubov branch.

Conventions: ``gamma`` is the rate appearing in e^{-gamma t} for the
occupation / covariance relaxation, split into a downward rate ``gamma_1``
and an upward rate ``gamma_2`` with gamma = gamma_1 - gamma_2 > 0 and
detailed balance gamma_1 = e^{beta_q} gamma_2.  The net collision
integrals are normalized so that they reproduce the closed-form rates in
their validity regions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .bec import (
    CondensateParams,
    beta_of,
    bogoliubov_uv,
    dispersion,
    group_velocity,
    invert_dispersion,
    thermal_occupation,
)
from .constants import HBAR, K_B

QUANTUM_RATIO = 0.3  # k_B T / (hbar w_q) below this: spontaneous decay dominates
THERMAL_RATIO = 3.0  # ">>" threshold for the collisional closed forms
THERMAL_CUTOFF = 45.0  # collision integrals run to hbar w = cutoff * k_B T
_SOURCES = ("auto", "asymptotic", "integral")  # an explicit rate needs no regime


class RegimeWarning(UserWarning):
    """A closed-form rate was evaluated outside its validity region."""


@dataclass(frozen=True)
class InteractionCoefficients:
    """Dimensionless three-mode vertex factors for a probe mode q.

    ``b`` couples q to the decay q -> k + k', and ``l`` to the collision
    q + k -> k' (``l`` carries its conventional factor of two).
    """

    b: float
    l: float


def vertex_coefficients(
    q: float, k: float, kp: float, params: CondensateParams
) -> InteractionCoefficients:
    """Vertex factors for the mode triple (q; k, k'), all wavenumbers > 0."""
    if min(q, k, kp) <= 0:
        raise ValueError("wavenumbers must be positive")
    uq, vq = bogoliubov_uv(q, params)
    uk, vk = bogoliubov_uv(k, params)
    up, vp = bogoliubov_uv(kp, params)
    b = uq * (uk * up + vk * up + uk * vp) + vq * (vk * vp + vk * up + uk * vp)
    l = 2.0 * (
        uq * (vk * up + uk * up + vk * vp) + vq * (uk * vp + uk * up + vk * vp)
    )
    return InteractionCoefficients(b=b, l=l)


@dataclass(frozen=True)
class QuadratureConfig:
    """Adaptive-quadrature controls for the collision integrals."""

    rel_tol: float = 1e-6
    max_subdivisions: int = 200


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class IntegralRates:
    """Collision-integral result: net channel rates plus the up/down split."""

    gamma_beliaev: float
    gamma_landau: float
    gamma_1: float
    gamma_2: float


@dataclass(frozen=True)
class DampingResult:
    """Damping rate of a phonon mode with its Lindblad split.

    ``gamma_total`` is gamma_1 + gamma_2 = gamma (1 + 2 N_th), the rate
    entering the diffusion matrix.
    """

    gamma: float
    gamma_beliaev: float
    gamma_landau: float
    gamma_1: float
    gamma_2: float
    gamma_total: float
    beta_q: float
    n_thermal: float
    regime: str
    flags: tuple[str, ...] = field(default=())

    @property
    def mu_inf(self) -> float:
        """Purity of the asymptotic thermal state, 1 / (1 + 2 N_th)."""
        return 1.0 / (1.0 + 2.0 * self.n_thermal)


def _high_temperature_region(kt: float, mu: float, e_q: float) -> bool:
    return kt > THERMAL_RATIO * mu and mu > THERMAL_RATIO * e_q


def _low_temperature_region(kt: float, mu: float, e_q: float) -> bool:
    return mu > THERMAL_RATIO * kt and kt > THERMAL_RATIO * e_q


def _warn_regime(message: str) -> None:
    warnings.warn(message, RegimeWarning, stacklevel=3)


def gamma_beliaev_asymptotic(omega_q: float, params: CondensateParams) -> float:
    """Spontaneous-decay rate (3/640pi) hbar w^5 / (m n c^5) [1 + (k_B T/hbar w)^3].

    Valid for k_B T << hbar w_q with w_q on the phonon branch; evaluating
    outside that region emits a RegimeWarning but still returns the formula.
    """
    if omega_q <= 0:
        raise ValueError("frequency must be positive")
    ratio = K_B * params.temperature / (HBAR * omega_q)
    if ratio >= QUANTUM_RATIO:
        _warn_regime(
            f"k_B T / (hbar w_q) = {ratio:.3g} is not << 1; "
            "spontaneous-decay formula is outside its validity region"
        )
    base = (
        3.0
        / (640.0 * math.pi)
        * HBAR
        * omega_q**5
        / (params.mass * params.density * params.speed_of_sound**5)
    )
    return base * (1.0 + ratio**3)


def gamma_landau_high_temperature(omega_q: float, params: CondensateParams) -> float:
    """Collisional rate (3pi/8) (k_B T a / hbar c_s) w_q, for k_B T >> mu >> hbar w_q."""
    if omega_q <= 0:
        raise ValueError("frequency must be positive")
    kt = K_B * params.temperature
    mu = params.chemical_potential
    if not _high_temperature_region(kt, mu, HBAR * omega_q):
        _warn_regime(
            "high-temperature collisional formula outside its validity region "
            f"(k_B T/mu = {kt / mu:.3g}, mu/hbar w_q = {mu / (HBAR * omega_q):.3g})"
        )
    return (
        3.0
        * math.pi
        / 8.0
        * kt
        * params.scattering_length
        / (HBAR * params.speed_of_sound)
        * omega_q
    )


def gamma_landau_low_temperature(omega_q: float, params: CondensateParams) -> float:
    """Collisional rate (3pi^3/40) (k_B T)^4 / (m n hbar^3 c_s^5) w_q, for mu >> k_B T >> hbar w_q."""
    if omega_q <= 0:
        raise ValueError("frequency must be positive")
    kt = K_B * params.temperature
    mu = params.chemical_potential
    if not _low_temperature_region(kt, mu, HBAR * omega_q):
        _warn_regime(
            "low-temperature collisional formula outside its validity region "
            f"(mu/k_B T = {mu / kt if kt else math.inf:.3g}, "
            f"k_B T/hbar w_q = {kt / (HBAR * omega_q):.3g})"
        )
    return (
        3.0
        * math.pi**3
        / 40.0
        * kt**4
        / (params.mass * params.density * HBAR**3 * params.speed_of_sound**5)
        * omega_q
    )


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first call.

    Only the collision integrals need scipy, so the closed-form paths never
    load it.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _quad_checked(f, lo: float, hi: float, cfg: QuadratureConfig) -> float:
    out = quad(
        f, lo, hi, epsabs=0.0, epsrel=cfg.rel_tol, limit=cfg.max_subdivisions,
        full_output=1,
    )
    if len(out) > 3:
        raise RuntimeError(f"collision-integral quadrature did not converge: {out[3]}")
    return out[0]


def gamma_integral(
    omega_q: float,
    params: CondensateParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> IntegralRates:
    """Full collision integrals for the decay and collisional channels.

    The pair sums are reduced to one-dimensional integrals over the
    environment-mode wavenumber k: momentum conservation fixes the angle
    between q and k, converting the energy delta into the factor
    k_l / (q k |dw/dk|_l) with the partner wavenumber k_l solved on the
    Bogoliubov branch (w_l = w_q -+ w_k).  For the convex branch the decay
    channel is kinematically open for all w_k in (0, w_q) and the collision
    channel for all w_k; if the partner root fell outside the momentum cone
    the contribution would be dropped (returned rate 0).  The overall
    normalization is the amplitude-rate convention of the closed forms,
    which the net rates reproduce in their validity regions.
    """
    if omega_q <= 0:
        raise ValueError("frequency must be positive")
    q = invert_dispersion(omega_q, params)
    prefactor = params.coupling**2 * params.density / (
        2.0 * math.pi * HBAR**2 * q
    )
    temperature = params.temperature

    def pair_weight(k: float, omega_l: float) -> tuple[float, float, float]:
        """(k_l, |dw/dk| at k_l, angular admissibility) for the partner mode."""
        kl = invert_dispersion(omega_l, params)
        if not (abs(q - k) <= kl <= q + k):
            return kl, 0.0, 0.0
        return kl, group_velocity(kl, params), 1.0

    # Decay channel: q -> k + l, w_l = w_q - w_k, spontaneous plus stimulated.
    def beliaev_integrand(k: float, up: bool) -> float:
        omega_k = dispersion(k, params)
        omega_l = omega_q - omega_k
        if omega_l <= 0.0:
            return 0.0
        kl, vg, open_ = pair_weight(k, omega_l)
        if not open_:
            return 0.0
        b = vertex_coefficients(q, k, kl, params).b
        nk = thermal_occupation(omega_k, temperature)
        nl = thermal_occupation(omega_l, temperature)
        occ = nk * nl if up else (1.0 + nk) * (1.0 + nl)
        return k * kl * b * b * occ / vg

    gb_down = prefactor * _quad_checked(
        lambda k: beliaev_integrand(k, up=False), 0.0, q, cfg
    )
    gb_up = 0.0
    if temperature > 0.0:
        gb_up = prefactor * _quad_checked(
            lambda k: beliaev_integrand(k, up=True), 0.0, q, cfg
        )

    # Collision channel: q + k -> l, w_l = w_q + w_k; vanishes at T = 0.
    gl_down = gl_up = 0.0
    if temperature > 0.0:
        omega_max = THERMAL_CUTOFF * K_B * temperature / HBAR
        k_max = invert_dispersion(omega_max, params)

        def landau_integrand(k: float, up: bool) -> float:
            omega_k = dispersion(k, params)
            omega_l = omega_q + omega_k
            kl, vg, open_ = pair_weight(k, omega_l)
            if not open_:
                return 0.0
            l = vertex_coefficients(q, k, kl, params).l
            nk = thermal_occupation(omega_k, temperature)
            nl = thermal_occupation(omega_l, temperature)
            occ = nl * (1.0 + nk) if up else nk * (1.0 + nl)
            return 0.5 * k * kl * l * l * occ / vg

        gl_down = prefactor * _quad_checked(
            lambda k: landau_integrand(k, up=False), 0.0, k_max, cfg
        )
        gl_up = prefactor * _quad_checked(
            lambda k: landau_integrand(k, up=True), 0.0, k_max, cfg
        )

    return IntegralRates(
        gamma_beliaev=gb_down - gb_up,
        gamma_landau=gl_down - gl_up,
        gamma_1=gb_down + gl_down,
        gamma_2=gb_up + gl_up,
    )


def split_rates(gamma: float, omega_q: float, temperature: float) -> tuple[float, float, float, float]:
    """(gamma_1, gamma_2, gamma_total, n_thermal) from a net rate and detailed balance."""
    n_th = thermal_occupation(omega_q, temperature)
    return gamma * (1.0 + n_th), gamma * n_th, gamma * (1.0 + 2.0 * n_th), n_th


def damping_result(
    gamma: float,
    gamma_beliaev: float,
    gamma_landau: float,
    omega_q: float,
    temperature: float,
    regime: str,
    flags: tuple[str, ...] = (),
) -> DampingResult:
    """A net rate with its channel parts, completed by the detailed-balance split."""
    gamma_1, gamma_2, gamma_total, n_th = split_rates(gamma, omega_q, temperature)
    return DampingResult(
        gamma=gamma,
        gamma_beliaev=gamma_beliaev,
        gamma_landau=gamma_landau,
        gamma_1=gamma_1,
        gamma_2=gamma_2,
        gamma_total=gamma_total,
        beta_q=beta_of(omega_q, temperature),
        n_thermal=n_th,
        regime=regime,
        flags=flags,
    )


def select_regime(
    omega_q: float,
    params: CondensateParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    source: str = "auto",
) -> DampingResult:
    """Damping rate from the formula that ``source`` picks for this mode.

    Regimes (thresholds are this implementation's reading of "<<"/">>"):
    ``quantum`` for k_B T / hbar w_q < 0.3; otherwise ``thermal_high`` on the
    k_B T > mu side and ``thermal_low`` on the other.  ``auto`` takes a
    collisional closed form only inside its strict region (k_B T / mu > 3
    with mu / hbar w_q > 3, or mu / k_B T > 3 with k_B T / hbar w_q > 3) and
    falls back to the collision integrals, with a flag, elsewhere.
    ``asymptotic`` always takes the nearest closed form, which warns with a
    RegimeWarning outside its region.  ``integral`` always integrates.
    """
    if omega_q <= 0:
        raise ValueError("frequency must be positive")
    if source not in _SOURCES:
        raise ValueError(f"unknown rate source {source!r}")
    kt = K_B * params.temperature
    mu = params.chemical_potential
    e_q = HBAR * omega_q
    nearest = source == "asymptotic"

    if source == "integral":
        regime = "integral"
    elif kt < QUANTUM_RATIO * e_q:
        regime = "quantum"
    elif kt > mu:
        strict = _high_temperature_region(kt, mu, e_q)
        regime = "thermal_high" if nearest or strict else "integral"
    else:
        strict = _low_temperature_region(kt, mu, e_q)
        regime = "thermal_low" if nearest or strict else "integral"

    flags: tuple[str, ...] = ()
    gamma_b = gamma_l = 0.0
    if regime == "quantum":
        gamma_b = gamma_beliaev_asymptotic(omega_q, params)
    elif regime == "thermal_high":
        gamma_l = gamma_landau_high_temperature(omega_q, params)
    elif regime == "thermal_low":
        gamma_l = gamma_landau_low_temperature(omega_q, params)
    else:
        rates = gamma_integral(omega_q, params, cfg)
        gamma_b, gamma_l = rates.gamma_beliaev, rates.gamma_landau
        if source == "auto":
            flags = ("no closed form applies; rates from collision integrals",)

    return damping_result(
        gamma_b + gamma_l, gamma_b, gamma_l, omega_q, params.temperature, regime, flags
    )
