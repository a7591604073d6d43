"""Scenario execution: rate resolution, trajectory and sweep tables, CSV.

Output is plain CSV with a commented header carrying every physical input
and derived rate in SI-annotated keys.  Every number is written as its repr
so a fixed config produces byte-identical files: the trajectory's float
table by ``_repr.repr_table``, a numpy kernel whose text equals repr cell
for cell and which also places the header, the sweep's table cell by cell
(its cells may be ``none``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bec import CondensateParams
from .config import ScenarioConfig
from .damping import DampingResult, QuadratureConfig, select_regime
from .decoherence import MetricTrajectory, metric_trajectory, purity_minimum_time
from .gaussian import state_from_params
from .three_body import decay_rate, half_life

# The lines of the ``rates`` verb, in print order; all are run_header keys
# (``flags`` only when the rate carries any).
RATES_KEYS = (
    "species",
    "speed_of_sound_m_per_s",
    "density_per_m3",
    "temperature_K",
    "mode_frequency_rad_per_s",
    "beta_q",
    "n_thermal",
    "regime",
    "flags",
    "gamma_per_s",
    "gamma_beliaev_per_s",
    "gamma_landau_per_s",
    "gamma_1_per_s",
    "gamma_2_per_s",
    "gamma_total_per_s",
    "mu_inf",
    "three_body_gamma0_per_s",
    "three_body_half_life_s",
)


def resolve_rate(
    config: ScenarioConfig,
    params: CondensateParams,
    omega_q=None,
) -> DampingResult | list[DampingResult]:
    """Damping rate for the scenario per its rate_source.

    ``omega_q`` defaults to the configured mode frequency; a 1-D array of
    frequencies gives one rate per frequency, as ``select_regime`` does.
    """
    quad_cfg = QuadratureConfig(
        rel_tol=config.quadrature_rel_tol,
        max_subdivisions=config.quadrature_max_subdivisions,
    )
    return select_regime(
        config.mode_frequency_rad_per_s if omega_q is None else omega_q,
        params,
        quad_cfg,
        config.rate_source,
        config.gamma_explicit_per_s,
    )


def run_header(
    config: ScenarioConfig,
    params: CondensateParams,
    rate: DampingResult,
    initial_occupation: float | None = None,
    metrics: MetricTrajectory | None = None,
) -> dict:
    """Inputs and derived rates of one mode, in header order.

    The trajectory passes its initial occupation and metrics; ``rates``
    passes neither, and those keys are left out.
    """
    header = {
        "species": config.species,
        "mass_kg": params.mass,
        "scattering_length_m": params.scattering_length,
        "speed_of_sound_m_per_s": params.speed_of_sound,
        "density_per_m3": params.density,
        "temperature_K": params.temperature,
        "chemical_potential_J": params.chemical_potential,
        "mode_frequency_rad_per_s": config.mode_frequency_rad_per_s,
        "initial_squeezing": config.initial_squeezing,
        "initial_purity": config.initial_purity,
        "initial_displacement": list(config.initial_displacement),
    }
    if initial_occupation is not None:
        header["initial_occupation"] = initial_occupation
    header.update({
        "rate_source": config.rate_source,
        "regime": rate.regime,
    })
    if rate.flags:
        header["flags"] = "; ".join(rate.flags)
    header.update({
        "gamma_per_s": rate.gamma,
        "gamma_beliaev_per_s": rate.gamma_beliaev,
        "gamma_landau_per_s": rate.gamma_landau,
        "gamma_1_per_s": rate.gamma_1,
        "gamma_2_per_s": rate.gamma_2,
        "gamma_total_per_s": rate.gamma_total,
        "beta_q": rate.beta_q,
        "n_thermal": rate.n_thermal,
        "mu_inf": rate.mu_inf,
    })
    if metrics is not None:
        header["t_min_s"] = metrics.t_min
        header["t_tau0_s"] = metrics.t_tau0
    header.update({
        "three_body_l3_m6_per_s": config.three_body_l3_m6_per_s,
        "three_body_gamma0_per_s": decay_rate(
            params.density, config.three_body_l3_m6_per_s
        ),
        "three_body_half_life_s": half_life(
            params.density, config.three_body_l3_m6_per_s
        ),
    })
    return header


def rates_report(config: ScenarioConfig) -> str:
    """The damping-rate breakdown printed by ``rates``, one key per line."""
    params = config.condensate()
    header = run_header(config, params, resolve_rate(config, params))
    return "\n".join(
        f"{key:<24} {_fmt(header[key])}" for key in RATES_KEYS if key in header
    )


@dataclass(frozen=True)
class Run:
    """A table with its metadata header: an all-float array (trajectory) or
    a list of row tuples whose cells may be None (sweep)."""

    header: dict
    columns: tuple[str, ...]
    rows: np.ndarray | list[tuple]


def run_trajectory(config: ScenarioConfig) -> Run:
    """Metric trajectory table for one scenario."""
    params = config.condensate()
    rate = resolve_rate(config, params)
    mu0 = config.initial_purity
    r0 = config.initial_squeezing
    state0 = state_from_params(mu0, r0, 0.0, d=np.array(config.initial_displacement))
    n0 = state0.occupation

    t_grid = np.linspace(0.0, config.time_max_s, config.time_points)
    try:
        with np.errstate(over="raise", invalid="raise"):
            metrics = metric_trajectory(
                mu0, r0, rate.mu_inf, rate.gamma, n0, rate.n_thermal, t_grid
            )
    except FloatingPointError as exc:
        raise ArithmeticError(
            f"{exc} in the trajectory metrics at initial_squeezing {r0!r}"
            f" and mu_inf {rate.mu_inf!r}"
        ) from None
    header = {"kind": "trajectory", **run_header(config, params, rate, n0, metrics)}
    rows = np.column_stack([metrics.t, metrics.mu, metrics.tau, metrics.r, metrics.occupation])
    return Run(
        header=header, columns=("t_s", "mu", "tau", "r", "occupation"), rows=rows
    )


_BRENT_MIN_RTOL = 4 * np.finfo(float).eps  # also the default, as in scipy


def brentq(
    f,
    a: float,
    b: float,
    xtol: float = 2e-12,
    rtol: float = _BRENT_MIN_RTOL,
    maxiter: int = 100,
) -> float:
    """Root of ``f`` in the sign-changing bracket [a, b], by Brent's method.

    A line-for-line port of ``scipy.optimize.brentq`` (its C ``brentq``), so
    that the sweep needs no scipy: the same defaults and argument checks,
    the same steps, bit-identical roots, ``ValueError`` when f(a) and f(b)
    have the same sign or f returns nan, and ``RuntimeError`` after
    ``maxiter`` iterations.  Inverse quadratic extrapolation or secant
    steps, falling back to bisection (Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 4).
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_MIN_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_MIN_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter should be > 0")

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (
                        dblk * dpre * (fblk - fpre)
                    )
            except ZeroDivisionError:  # an inf or nan step in C, which bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def run_sweep(config: ScenarioConfig) -> Run:
    """Decoherence time vs mode frequency for each configured speed of sound.

    Rows where the purity-minimum time exceeds the condensate half-life are
    flagged truncated (three-body loss dominates there); the crossing
    frequency is root-found per speed and reported in the header.
    """
    if not config.has_sweep():
        raise ValueError("config carries no sweep range")
    speeds = config.sweep_speeds_of_sound_m_per_s
    if not speeds:
        speeds = (config.condensate().speed_of_sound,)
    speeds = tuple(sorted(speeds))
    omegas = np.geomspace(
        config.sweep_omega_min_rad_per_s,
        config.sweep_omega_max_rad_per_s,
        config.sweep_points,
    )
    mu0 = config.initial_purity
    r0 = config.initial_squeezing

    rows: list[tuple] = []
    truncation: dict[float, float | None] = {}
    for c_s in speeds:
        params = config.condensate(speed_of_sound=c_s)
        t_half = half_life(params.density, config.three_body_l3_m6_per_s)

        def t_min_of(rate: DampingResult) -> float | None:
            return purity_minimum_time(mu0, r0, rate.mu_inf, rate.gamma)

        # every frequency of this speed in one call; the crossing search
        # below resolves one frequency at a time, to the same bits
        t_mins = []
        for omega, rate in zip(omegas, resolve_rate(config, params, omegas)):
            t_min = t_min_of(rate)
            t_mins.append(t_min)
            truncated = int(t_min is not None and t_min > t_half)
            rows.append((c_s, float(omega), rate.gamma, t_min, t_half, truncated))

        truncation[c_s] = None
        for i in range(len(omegas) - 1):
            a, b = t_mins[i], t_mins[i + 1]
            if a is None or b is None:
                continue
            fa, fb = a - t_half, b - t_half
            if fa == 0.0:
                truncation[c_s] = float(omegas[i])
                break
            if fa < 0.0 < fb or fb < 0.0 < fa:  # a product could overflow
                root = brentq(
                    lambda w: t_min_of(resolve_rate(config, params, w)) - t_half,
                    omegas[i],
                    omegas[i + 1],
                    rtol=1e-12,
                )
                truncation[c_s] = float(root)
                break

    header = {
        "kind": "sweep",
        "species": config.species,
        "temperature_K": config.temperature_K,
        "initial_squeezing": r0,
        "initial_purity": mu0,
        "rate_source": config.rate_source,
        "three_body_l3_m6_per_s": config.three_body_l3_m6_per_s,
        "sweep_omega_min_rad_per_s": config.sweep_omega_min_rad_per_s,
        "sweep_omega_max_rad_per_s": config.sweep_omega_max_rad_per_s,
        "sweep_points": config.sweep_points,
    }
    for c_s in speeds:
        header[f"truncation_omega_rad_per_s[c_s={c_s!r}]"] = truncation[c_s]
    return Run(
        header=header,
        columns=(
            "speed_of_sound_m_per_s",
            "omega_rad_per_s",
            "gamma_per_s",
            "t_min_s",
            "t_half_s",
            "truncated",
        ),
        rows=rows,
    )


def _fmt(value) -> str:
    # str of a Python float is its repr: the shortest round-tripping form
    if value is None:
        return "none"
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, (list, tuple)):
        return "[" + " ".join(_fmt(v) for v in value) + "]"
    return str(value)


def to_csv(run: Run) -> str:
    """Render a run as CSV text with a commented metadata header.

    A trajectory's header lines are written into ``repr_table``'s buffer
    ahead of its float table, so the text is decoded once and not joined.
    """
    lines = [f"# {key} = {_fmt(value)}" for key, value in run.header.items()]
    lines.append(",".join(run.columns))
    head = "\n".join(lines) + "\n"
    if isinstance(run.rows, np.ndarray):
        from ._repr import repr_table  # only the trajectory pays its import

        return repr_table(run.rows, head)
    return head + "".join(",".join(map(_fmt, row)) + "\n" for row in run.rows)


def write_csv(run: Run, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_csv(run))
