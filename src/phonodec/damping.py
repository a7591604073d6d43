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

from .bec import CondensateParams, beta_of, thermal_occupation, thermal_purity
from .constants import HBAR, K_B

QUANTUM_RATIO = 0.3  # k_B T / (hbar w_q) below this: spontaneous decay dominates
THERMAL_RATIO = 3.0  # ">>" threshold for the collisional closed forms
THERMAL_CUTOFF = 45.0  # collision integrals run to hbar w = cutoff * k_B T
# The decay vertex's numerator 3 S_q S_k S_l + S_k + S_l - S_q is at most
# about (3/16) eps^3 for phonons, summed from terms of order eps that carry
# a few ulp of rounding each; below the eps where (3/16) eps^2 is 4 ulp it
# is rounding noise, and b rounds to 0 at every node from about 1e-8 down.
VERTEX_EPS_MIN = math.sqrt(64.0 / 3.0 * np.finfo(float).eps)  # 6.9e-8
RATE_SOURCES = ("auto", "asymptotic", "integral", "explicit")


class RegimeWarning(UserWarning):
    """A closed-form rate was evaluated outside its validity region."""


def condensate_units(omega_q, params: CondensateParams):
    """(theta, eps) = (k_B T / mu, hbar w_q / mu): the temperature and the mode
    energy in units of the chemical potential.  ``omega_q`` may be an array,
    and ``eps`` then has its shape."""
    mu = params.chemical_potential
    return K_B * params.temperature / mu, HBAR * omega_q / mu


def _energy(x):
    """E = hbar w / mu = x sqrt(1 + x^2/4) of the mode at x = hbar k / (m c_s)."""
    return x * np.sqrt(1.0 + 0.25 * x * x)


def _momentum(e):
    """The x of energy ``e``, x^2 = 2 E^2 / (1 + sqrt(1 + E^2)), written
    without squares so that it holds over the whole float range."""
    return e * np.sqrt(2.0 / (1.0 + np.hypot(1.0, e)))


def _free_ratio(x, e):
    """S = (x^2/2) / E = (u + v)^2 of the mode at ``x`` with energy ``e``,
    written so that x^2 does not underflow."""
    return 0.5 * x / (e / x)


def _vertices(sq, sk, sl):
    """(b, l) from S of the three modes; see vertex_coefficients."""
    product = sq * sk * sl
    cubic, root = 3.0 * product, np.sqrt(product)
    return (cubic + sk + sl - sq) / (4.0 * root), (cubic + sq + sk - sl) / (2.0 * root)


def vertex_coefficients(xq, xk, xl) -> tuple[float, float]:
    """Dimensionless vertex factors (b, l) for the mode triple (q; k, k').

    Each mode is given by its x = hbar k / (m c_s).  ``b`` couples the probe
    mode q to the decay q -> k + k', and ``l`` to the collision q + k -> k'
    (``l`` carries its conventional factor of two):
    b = u_q (u_k u_k' + v_k u_k' + u_k v_k') + v_q (v_k v_k' + v_k u_k' + u_k v_k')
    and l = 2 [u_q (v_k u_k' + u_k u_k' + v_k v_k') + v_q (u_k v_k' + u_k u_k' +
    v_k v_k')], with u, v = (+-) sqrt((x^2/2 + 1 +- E) / 2E).  Since
    (x^2/2 + 1)^2 - E^2 = 1, u, v = (s +- 1/s) / 2 with s^2 = S = (x^2/2) / E,
    so b = (3 S_q S_k S_k' + S_k + S_k' - S_q) / (4 sqrt(S_q S_k S_k')) and
    l = (3 S_q S_k S_k' + S_q + S_k - S_k') / (2 sqrt(S_q S_k S_k')), as they
    are evaluated: for phonons the u/v products are of order x^(-3/2) and
    cancel to b, l of order x^(3/2).  All arguments must be > 0; any may be
    an array, and the factors then broadcast.
    """
    if min(np.min(xq), np.min(xk), np.min(xl)) <= 0:
        raise ValueError("wavenumbers must be positive")
    return _vertices(*(_free_ratio(x, _energy(x)) for x in (xq, xk, xl)))


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
        return thermal_purity(self.n_thermal)


def _nearest_closed_form(theta: float, eps: float) -> tuple[str, bool]:
    """(regime, strict): the closed form nearest the mode at theta = k_B T / mu
    and eps = hbar w_q / mu, and whether the mode lies in that form's strict
    region.  This is the one rule for the closed forms' regions (thresholds
    are this implementation's reading of "<<"/">>"): ``quantum`` for
    k_B T / hbar w_q < QUANTUM_RATIO, its strict region; otherwise
    ``thermal_high`` on the k_B T > mu side, strict for k_B T / mu and
    mu / hbar w_q above THERMAL_RATIO, and ``thermal_low`` on the other,
    strict for mu / k_B T and k_B T / hbar w_q above THERMAL_RATIO."""
    if theta < QUANTUM_RATIO * eps:
        return "quantum", True
    if theta > 1.0:
        return "thermal_high", theta > THERMAL_RATIO and 1.0 > THERMAL_RATIO * eps
    return "thermal_low", 1.0 > THERMAL_RATIO * theta and theta > THERMAL_RATIO * eps


def gamma_beliaev_asymptotic(omega_q: float, params: CondensateParams) -> float:
    """Spontaneous-decay rate (3/640pi) hbar w^5 / (m n c^5) [1 + (k_B T/hbar w)^3].

    Valid for k_B T << hbar w_q with w_q on the phonon branch.  Like the
    two collisional forms, a formula only: ``select_regime`` decides where
    it applies, and ``closed_form_rates`` calls it.
    """
    ratio = K_B * params.temperature / (HBAR * omega_q)
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
    return (
        3.0
        * math.pi
        / 8.0
        * (K_B * params.temperature)
        * params.scattering_length
        / (HBAR * params.speed_of_sound)
        * omega_q
    )


def gamma_landau_low_temperature(omega_q: float, params: CondensateParams) -> float:
    """Collisional rate (3pi^3/40) (k_B T)^4 / (m n hbar^3 c_s^5) w_q, for mu >> k_B T >> hbar w_q."""
    return (
        3.0
        * math.pi**3
        / 40.0
        * (K_B * params.temperature) ** 4
        / (params.mass * params.density * HBAR**3 * params.speed_of_sound**5)
        * omega_q
    )


def closed_form_rates(regime: str, omega_q: float, params: CondensateParams) -> tuple[float, float]:
    """(gamma_beliaev, gamma_landau) from the closed form ``regime`` names:
    ``quantum`` fills the decay channel, ``thermal_high`` and ``thermal_low``
    the collisional one, and the other channel is 0.0."""
    if regime == "quantum":
        return gamma_beliaev_asymptotic(omega_q, params), 0.0
    elif regime == "thermal_high":
        return 0.0, gamma_landau_high_temperature(omega_q, params)
    elif regime == "thermal_low":
        return 0.0, gamma_landau_low_temperature(omega_q, params)
    raise ValueError(f"{regime!r} is not a closed form")


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
    """Full collision integrals for the decay and collisional channels: s G,
    with s = ``params.rate_scale`` and G from ``_gamma_integral``.

    ``omega_q`` may be a 1-D array of frequencies: the result is then one
    IntegralRates per frequency, from one batched ``gauss_kronrod`` call,
    and each is bit-identical to the result for that frequency alone.
    """
    omegas = np.atleast_1d(np.asarray(omega_q, dtype=float))
    if omegas.ndim != 1:
        raise ValueError("frequencies must be a scalar or a 1-D array")
    if np.any(omegas <= 0):
        raise ValueError("frequency must be positive")
    theta, eps = condensate_units(omegas, params)
    # numpy's overflow, invalid and divide-by-zero warnings raise
    # FloatingPointError here, as the scalar math they replace did
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        g_b, g_l = params.rate_scale * _gamma_integral(theta, eps, cfg)
        rates = [IntegralRates(float(b), float(l)) for b, l in zip(g_b, g_l)]
    return rates if np.ndim(omega_q) else rates[0]


def _occupation(e: np.ndarray, theta: float) -> np.ndarray:
    """Bose-Einstein occupation 1 / (e^{E/theta} - 1) of energies ``e``; 0
    above E/theta = 700, as ``bec.thermal_occupation``, and at theta = 0."""
    if theta == 0.0:
        return np.zeros_like(e)
    beta = e / theta
    return np.where(beta > 700.0, 0.0, 1.0 / np.expm1(np.minimum(beta, 700.0)))


def _gamma_integral(
    theta: float, eps: np.ndarray, cfg: QuadratureConfig
) -> np.ndarray:
    """The rows (G_B, G_L): the net Beliaev and Landau rates over s at
    theta = k_B T / mu, one column per mode energy eps = hbar w_q / mu.

    The pair sums reduce to one-dimensional integrals over the environment
    mode's x = hbar k / (m c_s): momentum conservation fixes the angle
    between q and k, converting the energy delta into the factor
    x_l / (x_q x |dE/dx|_l) with the partner x_l solved on the Bogoliubov
    branch (E_l = eps -+ E_k).  For the convex branch the decay channel is
    kinematically open for all E_k in (0, eps) and the collision channel
    for all E_k; if the partner root fell outside the momentum cone the
    contribution would be dropped (returned rate 0).  The overall
    normalization is the amplitude-rate convention of the closed forms,
    which the net rates reproduce in their validity regions.  The
    integrand is each channel's net rate, downward less upward, held to
    ``cfg.rel_tol`` on its own: both channels are integrated in one
    ``gauss_kronrod`` call, each channel of each mode on an interval of its
    own.  Each node evaluates E_k, E_l, x_l and their two S once.  Below
    eps = ``VERTEX_EPS_MIN`` it raises FloatingPointError instead.
    """
    if np.any(eps < VERTEX_EPS_MIN):  # else a silent G_B = 0, or no convergence
        raise FloatingPointError(
            "the decay vertex 3 S_q S_k S_l + S_k + S_l - S_q cancels below rounding"
            f" at eps = hbar w / mu = {eps.min():.4g} (the collision integrals need"
            f" at least {VERTEX_EPS_MIN:.2g})"
        )
    n = len(eps)
    xq = _momentum(eps)
    sq = _free_ratio(xq, eps)
    # Interval i < n is mode i's decay channel (q -> k + l, E_l = eps_i - E_k)
    # on [0, x_q], and interval n + i its collision channel (q + k -> l,
    # E_l = eps_i + E_k) on [0, x_max], with E(x_max) = THERMAL_CUTOFF theta;
    # the latter is absent at theta = 0, or when x_max underflows to 0 (an
    # empty interval, as for any quadrature).
    x_max = _momentum(THERMAL_CUTOFF * theta)
    upper = np.concatenate((xq, np.full_like(xq, x_max))) if x_max > 0.0 else xq

    def integrand(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Net rate of each row's channel; row r of ``x`` belongs to
        interval ``owner[r]``."""
        decay = (owner < n)[:, None]
        mode = owner % n
        e_q, x_q = eps[mode][:, None], xq[mode][:, None]
        e_k = _energy(x)
        e_l = e_q + np.where(decay, -e_k, e_k)
        open_ = e_l > 0.0
        e_l = np.where(open_, e_l, e_q)  # a stand-in where closed
        x_l = _momentum(e_l)
        open_ &= (np.abs(x_q - x) <= x_l) & (x_l <= x_q + x)
        # x x_l / |dE/dx|_l, with dE/dx = x (1 + x^2 / 2) / E
        weight = np.where(open_, x * (e_l / (1.0 + 0.5 * x_l * x_l)), 0.0)
        b, l = _vertices(sq[mode][:, None], _free_ratio(x, e_k), _free_ratio(x_l, e_l))
        # the collision vertex carries a factor 1/2; each row squares only
        # its own channel's factor
        weight = np.where(decay, 1.0, 0.5) * weight * np.where(decay, b, l) ** 2
        nk, nl = _occupation(e_k, theta), _occupation(e_l, theta)
        # down less up: (1 + n_k)(1 + n_l) - n_k n_l; n_k (1 + n_l) - (1 + n_k) n_l
        return weight * np.where(decay, 1.0 + nk + nl, nk - nl)

    g = np.zeros(2 * n)  # every interval's integral, 0 where absent
    g[: len(upper)] = gauss_kronrod(integrand, 0.0, upper, cfg)
    return g.reshape(2, n) * (4.0 * math.sqrt(math.pi) / xq)  # the normalization


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


def regime_of(theta: float, eps: float, source: str) -> str:
    """The formula that ``source`` picks for one mode at theta = k_B T / mu
    and eps = hbar w_q / mu (see ``select_regime``)."""
    if source in ("integral", "explicit"):
        return source
    regime, strict = _nearest_closed_form(theta, eps)
    return regime if strict or source == "asymptotic" else "integral"


def select_regime(
    omega_q,
    params: CondensateParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    source: str = "auto",
    gamma_explicit: float | None = None,
) -> DampingResult | list[DampingResult]:
    """Damping rate from the formula that ``source`` picks for this mode.

    ``auto`` takes the nearest closed form (``_nearest_closed_form``) only
    inside its strict region and falls back to the collision integrals,
    with a flag, elsewhere.  ``asymptotic`` always takes the nearest closed
    form; outside its strict region it warns with one RegimeWarning, whose
    text is also the result's ``flags``.  ``integral`` always integrates.
    ``explicit`` takes ``gamma_explicit`` as the net rate, with no channel
    parts.

    ``omega_q`` may be a 1-D array of frequencies: the result is then one
    DampingResult per frequency.  Closed forms are evaluated point by point,
    and the points that need the collision integrals share one
    ``gamma_integral`` call.
    """
    if source not in RATE_SOURCES:
        raise ValueError(f"unknown rate source {source!r}")
    omegas = np.atleast_1d(omega_q).tolist()  # Python floats, as a point call's
    if any(omega <= 0 for omega in omegas):
        raise ValueError("frequency must be positive")
    units = [condensate_units(omega, params) for omega in omegas]
    regimes = [regime_of(theta, eps, source) for theta, eps in units]
    integrated = [omega for omega, regime in zip(omegas, regimes) if regime == "integral"]
    integrals = iter(gamma_integral(np.array(integrated), params, cfg) if integrated else ())

    results = []
    for omega, (theta, eps), regime in zip(omegas, units, regimes):
        flags: tuple[str, ...] = ()
        if source == "asymptotic" and not _nearest_closed_form(theta, eps)[1]:
            flags = (
                f"{regime} closed form outside its validity region"
                f" (k_B T/mu = {theta:.3g}, hbar w_q/mu = {eps:.3g})",
            )
            warnings.warn(flags[0], RegimeWarning, stacklevel=2)
        gamma_b = gamma_l = 0.0
        if regime == "integral":
            gamma_b, gamma_l = next(integrals)
            if source == "auto":
                flags = ("no closed form applies; rates from collision integrals",)
        elif regime != "explicit":
            gamma_b, gamma_l = closed_form_rates(regime, omega, params)
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
