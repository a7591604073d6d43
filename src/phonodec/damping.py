"""Phonon damping rates for a uniform three-dimensional condensate.

Three ingredients:

* the cubic interaction vertices built from the Bogoliubov coefficients,
* closed-form rates in the three temperature regimes (spontaneous decay
  at k_B T << hbar w_q, and the two collisional regimes at high and low
  temperature relative to the chemical potential),
* the full collision integrals, with the energy delta resolved on the
  Bogoliubov branch and the k integrals done by adaptive Gauss-Kronrod
  quadrature of each channel's net rate, vectorized over frequencies,
  channels and nodes: a sweep resolves both channels of every frequency of
  one speed of sound in one adaptive pass.  A frequency's panels and sums
  do not depend on the frequencies resolved with it, so a rate has the
  same bits whichever verb asked for it.

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
from typing import NamedTuple

import numpy as np

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
RATE_SOURCES = ("auto", "asymptotic", "integral", "explicit")


class RegimeWarning(UserWarning):
    """A closed-form rate was evaluated outside its validity region."""


def vertex_coefficients(
    q: float, k: float, kp: float, params: CondensateParams
) -> tuple[float, float]:
    """Dimensionless vertex factors (b, l) for the mode triple (q; k, k').

    ``b`` couples the probe mode q to the decay q -> k + k', and ``l`` to
    the collision q + k -> k' (``l`` carries its conventional factor of
    two).  All wavenumbers must be > 0; any argument may be an array, and
    the factors then broadcast.
    """
    if min(np.min(q), np.min(k), np.min(kp)) <= 0:
        raise ValueError("wavenumbers must be positive")
    uq, vq = bogoliubov_uv(q, params)
    uk, vk = bogoliubov_uv(k, params)
    up, vp = bogoliubov_uv(kp, params)
    b = uq * (uk * up + vk * up + uk * vp) + vq * (vk * vp + vk * up + uk * vp)
    l = 2.0 * (
        uq * (vk * up + uk * up + vk * vp) + vq * (uk * vp + uk * up + vk * vp)
    )
    return b, l


class QuadratureConfig(NamedTuple):
    """Adaptive-quadrature controls for the collision integrals: the relative
    error each integral must reach, and the most Gauss-Kronrod panels one
    integral may be split into."""

    rel_tol: float = 1e-6
    max_subdivisions: int = 200


DEFAULT_QUADRATURE = QuadratureConfig()


class IntegralRates(NamedTuple):
    """Collision-integral result: the net rate of each channel."""

    gamma_beliaev: float
    gamma_landau: float


class DampingResult(NamedTuple):
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
    flags: tuple[str, ...] = ()

    @property
    def mu_inf(self) -> float:
        """Purity of the asymptotic thermal state, 1 / (1 + 2 N_th)."""
        return 1.0 / (1.0 + 2.0 * self.n_thermal)


def _quantum_region(kt: float, e_q: float) -> bool:
    return kt < QUANTUM_RATIO * e_q


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
    kt, e_q = K_B * params.temperature, HBAR * omega_q
    ratio = kt / e_q
    if not _quantum_region(kt, e_q):
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

    The independent adaptive-quadrature reference that the tests hold
    ``gauss_kronrod`` to; no verb calls it, so scipy is a ``test`` extra,
    not a package dependency.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


# QUADPACK's qk21 table (Piessens et al. 1983): the 21-point Kronrod rule on
# [-1, 1] and the 10-point Gauss rule on every other of its nodes.  Listed for
# the nodes x >= 0, from the outermost inwards; the rules are symmetric.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (  # at _XGK[1], _XGK[3], ..., _XGK[9]
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
GK21_NODES = np.array([-x for x in _XGK] + list(_XGK[-2::-1]))  # ascending
GK21_WEIGHTS = np.array(_WGK + _WGK[-2::-1])
G10_WEIGHTS = np.zeros(21)
G10_WEIGHTS[1:10:2] = _WG
G10_WEIGHTS[11:20:2] = _WG[::-1]
_KRONROD_MINUS_GAUSS = GK21_WEIGHTS - G10_WEIGHTS


def _gk21_panels(
    f, a: np.ndarray, b: np.ndarray, owner: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod estimate and |Kronrod - Gauss| of ``f`` on each panel.

    Each panel's 21-term sums are reduced on their own (not by a matrix
    product, whose blocking depends on the number of panels), so a panel's
    estimates do not depend on the panels evaluated with it.
    """
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * GK21_NODES
    fx = f(x, owner)
    kronrod = (fx * GK21_WEIGHTS).sum(axis=-1) * half
    difference = (fx * _KRONROD_MINUS_GAUSS).sum(axis=-1) * half
    return kronrod, np.abs(difference)


def gauss_kronrod(f, lo, hi, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Integral of ``f`` over each interval [lo_i, hi_i].

    ``lo`` and ``hi`` broadcast to one 1-D array of intervals.  ``f(x, owner)``
    maps a 2-D array of abscissae to an array of the same shape; ``owner``
    holds, for each row of ``x``, the index i of the interval the row lies
    in, so ``f`` may be a different function on each interval.  The result
    has shape (intervals,).

    Globally adaptive Gauss-Kronrod 21/10 on each interval (QUADPACK's
    ``qag`` strategy): every panel whose |Kronrod - Gauss| exceeds its equal
    share of the interval's budget is bisected, until the summed difference
    is at most ``cfg.rel_tol`` times |integral|.  The
    intervals are refined together, one round of numpy calls at a time, and
    an interval stops when it converges; its panels, and so its result, are
    the same bits as when it is integrated alone.  A refinement that would
    split any interval into more than ``cfg.max_subdivisions`` panels raises
    RuntimeError.
    """
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    owner = np.arange(len(a))  # the interval of each panel, ascending
    panels = np.ones(len(a), dtype=int)  # panels per interval
    value, error = _gk21_panels(f, a, b, owner)
    result = np.empty(len(a))
    while True:
        # each live interval's sums, over its run of panels in order
        starts = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
        total = np.add.reduceat(value, starts)
        budget = cfg.rel_tol * np.abs(total)
        done = np.add.reduceat(error, starts) <= budget
        result[owner[starts[done]]] = total[done]
        if done.all():
            return result
        segment = np.searchsorted(owner[starts], owner)  # each panel's run
        if done.any():
            going = ~done[segment]
            a, b, owner, segment = a[going], b[going], owner[going], segment[going]
            value, error = value[going], error[going]
        # written so that a nan estimate is split too, and ends at the cap
        split = ~(error * panels[owner] <= budget[segment])
        panels += np.bincount(owner[split], minlength=len(panels))
        if np.any(panels > cfg.max_subdivisions):
            raise RuntimeError(
                "collision-integral quadrature did not converge to relative "
                f"tolerance {cfg.rel_tol:g} within {cfg.max_subdivisions} "
                "Gauss-Kronrod panels"
            )
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate((a[split], mid))
        new_b = np.concatenate((mid, b[split]))
        new_owner = np.concatenate((owner[split], owner[split]))
        new_value, new_error = _gk21_panels(f, new_a, new_b, new_owner)
        keep = ~split
        # each interval's kept panels, then its left halves, then its right
        # halves: the order in which it is refined alone
        owner = np.concatenate((owner[keep], new_owner))
        order = np.argsort(owner, kind="stable")
        owner = owner[order]
        a = np.concatenate((a[keep], new_a))[order]
        b = np.concatenate((b[keep], new_b))[order]
        value = np.concatenate((value[keep], new_value))[order]
        error = np.concatenate((error[keep], new_error))[order]


def gamma_integral(
    omega_q,
    params: CondensateParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> IntegralRates | list[IntegralRates]:
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
    which the net rates reproduce in their validity regions.  The integrand
    is each channel's net rate, downward less upward, held to ``cfg.rel_tol``
    on its own: both channels are integrated in one ``gauss_kronrod`` call,
    each channel of each frequency on an interval of its own.

    ``omega_q`` may be a 1-D array of frequencies: the result is then one
    IntegralRates per frequency, from that one batched call, and each is
    bit-identical to the result for that frequency alone.
    """
    omegas = np.atleast_1d(np.asarray(omega_q, dtype=float))
    if omegas.ndim != 1:
        raise ValueError("frequencies must be a scalar or a 1-D array")
    if np.any(omegas <= 0):
        raise ValueError("frequency must be positive")
    # numpy's overflow, invalid and divide-by-zero warnings raise
    # FloatingPointError here, as the scalar math they replace did
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rates = _gamma_integral(omegas, params, cfg)
    return rates if np.ndim(omega_q) else rates[0]


def _gamma_integral(
    omegas: np.ndarray, params: CondensateParams, cfg: QuadratureConfig
) -> list[IntegralRates]:
    qs = invert_dispersion(omegas, params)
    prefactor = params.coupling**2 * params.density / (
        2.0 * math.pi * HBAR**2 * qs
    )
    temperature = params.temperature
    n = len(omegas)
    # Interval i < n is frequency i's decay channel (q -> k + l, w_l = w_q -
    # w_k) on [0, q_i], and interval n + i its collision channel (q + k -> l,
    # w_l = w_q + w_k) on [0, k_max]; the latter is absent at T = 0, or when
    # k_max underflows to 0 (an empty interval, as for any quadrature).
    k_max = 0.0
    if temperature > 0.0:
        k_max = invert_dispersion(THERMAL_CUTOFF * K_B * temperature / HBAR, params)
    upper = np.concatenate((qs, np.full_like(qs, k_max))) if k_max > 0.0 else qs

    def integrand(k: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Net rate of each row's channel; row r of ``k`` belongs to
        interval ``owner[r]``."""
        decay = (owner < n)[:, None]
        omega_q = omegas[owner % n][:, None]
        q = qs[owner % n][:, None]
        omega_k = dispersion(k, params)
        omega_l = omega_q + np.where(decay, -1.0, 1.0) * omega_k
        open_ = omega_l > 0.0
        omega_l = np.where(open_, omega_l, omega_q)  # a stand-in where closed
        kl = invert_dispersion(omega_l, params)
        open_ &= (np.abs(q - k) <= kl) & (kl <= q + k)
        weight = np.where(open_, k * kl / group_velocity(kl, params), 0.0)
        b, l = vertex_coefficients(q, k, kl, params)
        # the collision vertex carries a factor 1/2; each row squares only
        # its own channel's factor
        weight = np.where(decay, 1.0, 0.5) * weight * np.where(decay, b, l) ** 2
        nk = thermal_occupation(omega_k, temperature)
        nl = thermal_occupation(omega_l, temperature)
        # down less up: (1 + n_k)(1 + n_l) - n_k n_l; n_k (1 + n_l) - (1 + n_k) n_l
        return weight * np.where(decay, 1.0 + nk + nl, nk - nl)

    rates = np.zeros(2 * n)  # every interval's rate, 0 where absent
    rates[: len(upper)] = np.tile(prefactor, 2)[: len(upper)] * gauss_kronrod(
        integrand, 0.0, upper, cfg
    )
    return [
        IntegralRates(gamma_beliaev=float(b), gamma_landau=float(l))
        for b, l in zip(rates[:n], rates[n:])
    ]


def split_rates(gamma: float, omega_q: float, temperature: float) -> tuple[float, float, float, float]:
    """(gamma_1, gamma_2, gamma_total, n_thermal) from a net rate and detailed balance.

    OverflowError when gamma_total = gamma (1 + 2 n_th), the largest of the
    three, is not finite; the check multiplies Python floats, which do not warn.
    """
    n_th = thermal_occupation(omega_q, temperature)
    if not math.isfinite(float(gamma) * (1.0 + 2.0 * n_th)):
        raise OverflowError(
            f"the Lindblad split of gamma = {float(gamma)!r} 1/s at n_th = {n_th!r}"
            " overflows: gamma (1 + 2 n_th) is not finite"
        )
    return gamma * (1.0 + n_th), gamma * n_th, gamma * (1.0 + 2.0 * n_th), n_th


def regime_of(omega_q: float, params: CondensateParams, source: str) -> str:
    """The formula that ``source`` picks for one mode (see ``select_regime``)."""
    if source in ("integral", "explicit"):
        return source
    kt = K_B * params.temperature
    mu = params.chemical_potential
    e_q = HBAR * omega_q
    nearest = source == "asymptotic"
    if _quantum_region(kt, e_q):
        return "quantum"
    if kt > mu:
        strict = _high_temperature_region(kt, mu, e_q)
        return "thermal_high" if nearest or strict else "integral"
    strict = _low_temperature_region(kt, mu, e_q)
    return "thermal_low" if nearest or strict else "integral"


def select_regime(
    omega_q,
    params: CondensateParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    source: str = "auto",
    gamma_explicit: float | None = None,
) -> DampingResult | list[DampingResult]:
    """Damping rate from the formula that ``source`` picks for this mode.

    Regimes (thresholds are this implementation's reading of "<<"/">>"):
    ``quantum`` for k_B T / hbar w_q < 0.3; otherwise ``thermal_high`` on the
    k_B T > mu side and ``thermal_low`` on the other.  ``auto`` takes a
    collisional closed form only inside its strict region (k_B T / mu > 3
    with mu / hbar w_q > 3, or mu / k_B T > 3 with k_B T / hbar w_q > 3) and
    falls back to the collision integrals, with a flag, elsewhere.
    ``asymptotic`` always takes the nearest closed form, which warns with a
    RegimeWarning outside its region.  ``integral`` always integrates.
    ``explicit`` takes ``gamma_explicit`` as the net rate, with no channel
    parts.

    ``omega_q`` may be a 1-D array of frequencies: the result is then one
    DampingResult per frequency.  Closed forms are evaluated point by point,
    and the points that need the collision integrals share one
    ``gamma_integral`` call.
    """
    if source not in RATE_SOURCES:
        raise ValueError(f"unknown rate source {source!r}")
    omegas = list(omega_q) if np.ndim(omega_q) else [omega_q]
    if any(omega <= 0 for omega in omegas):
        raise ValueError("frequency must be positive")
    regimes = [regime_of(omega, params, source) for omega in omegas]
    integrated = [omega for omega, regime in zip(omegas, regimes) if regime == "integral"]
    integrals = iter(gamma_integral(np.array(integrated), params, cfg) if integrated else ())

    results = []
    for omega, regime in zip(omegas, regimes):
        flags: tuple[str, ...] = ()
        gamma_b = gamma_l = 0.0
        if regime == "quantum":
            gamma_b = gamma_beliaev_asymptotic(omega, params)
        elif regime == "thermal_high":
            gamma_l = gamma_landau_high_temperature(omega, params)
        elif regime == "thermal_low":
            gamma_l = gamma_landau_low_temperature(omega, params)
        elif regime == "integral":
            rates = next(integrals)
            gamma_b, gamma_l = rates.gamma_beliaev, rates.gamma_landau
            if source == "auto":
                flags = ("no closed form applies; rates from collision integrals",)
        gamma = gamma_explicit if regime == "explicit" else gamma_b + gamma_l
        gamma_1, gamma_2, gamma_total, n_th = split_rates(
            gamma, omega, params.temperature
        )
        results.append(
            DampingResult(
                gamma=gamma,
                gamma_beliaev=gamma_b,
                gamma_landau=gamma_l,
                gamma_1=gamma_1,
                gamma_2=gamma_2,
                gamma_total=gamma_total,
                beta_q=beta_of(omega, params.temperature),
                n_thermal=n_th,
                regime=regime,
                flags=flags,
            )
        )
    return results if np.ndim(omega_q) else results[0]
