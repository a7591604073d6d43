"""Scenario configuration: schema, validation, and the shipped presets.

Configs are flat mappings with unit-annotated keys (always SI), read from a
YAML or JSON file.  Unknown keys are rejected so typos cannot silently
change a run.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .bec import CondensateParams
from .constants import HBAR, K_B, SPECIES_PRESETS
from .damping import (
    DEFAULT_QUADRATURE,
    RATE_SOURCES,
    gamma_beliaev_asymptotic,
    regime_of,
    split_rates,
)
from .gaussian import state_from_params


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the offending key."""


def _number(key: str, value, *, positive=False, nonnegative=False) -> float:
    if isinstance(value, str):
        # YAML 1.1 resolves exponents without a sign ("1.0e4") as strings
        try:
            value = float(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite")
    if positive and value <= 0:
        raise ConfigError(f"{key}: must be > 0")
    if nonnegative and value < 0:
        raise ConfigError(f"{key}: must be >= 0")
    return value


def _frequency(key: str, value) -> float:
    omega = _number(key, value, positive=True)
    if omega * omega < sys.float_info.min:
        # the collision integrals invert the dispersion through omega**2,
        # subnormal below 1.49e-154 rad/s, and find no wavenumber at all
        # below ~3e-160 at fig1's speed of sound; the closed forms divide by
        # an hbar*omega that underflows below ~7e-290
        raise ConfigError(
            f"{key}: omega**2 underflows at {omega!r} rad/s"
            " (use at least 1.4916681462400413e-154)"
        )
    return omega


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: condensate, probe mode, initial state, run controls."""

    species: str
    mass_kg: float
    scattering_length_m: float
    speed_of_sound_m_per_s: float | None
    density_per_m3: float | None
    temperature_K: float
    mode_frequency_rad_per_s: float
    initial_squeezing: float
    initial_purity: float
    initial_displacement: tuple[float, float]
    time_max_s: float
    time_points: int
    rate_source: str
    gamma_explicit_per_s: float | None
    quadrature_rel_tol: float
    quadrature_max_subdivisions: int
    three_body_l3_m6_per_s: float
    sweep_omega_min_rad_per_s: float | None
    sweep_omega_max_rad_per_s: float | None
    sweep_points: int
    sweep_speeds_of_sound_m_per_s: tuple[float, ...]

    def condensate(self, speed_of_sound: float | None = None) -> CondensateParams:
        """Condensate parameters from the resolved species constants.

        ``speed_of_sound`` replaces the configured speed of sound or density.
        """
        c_s, n = self.speed_of_sound_m_per_s, self.density_per_m3
        if speed_of_sound is not None:
            c_s, n = speed_of_sound, None
        return CondensateParams(
            mass=self.mass_kg,
            scattering_length=self.scattering_length_m,
            temperature=self.temperature_K,
            speed_of_sound=c_s or 0.0,
            density=n or 0.0,
        )

    def has_sweep(self) -> bool:
        return self.sweep_omega_min_rad_per_s is not None


_KNOWN_KEYS = {f.name for f in fields(ScenarioConfig)} | {
    "initial_thermal_occupation"
}


def _initial_state_is_finite(
    mu0: float, r0: float, d: tuple[float, float] = (0.0, 0.0)
) -> bool:
    """Whether gaussian.state_from_params builds the state and its occupation
    without overflow.

    Its covariance has entries up to e^(2r)/(2 mu) and determinant
    1/(4 mu^2), and its occupation kappa^2 (Tr sigma + d.d) - 1/2 adds the
    squared displacement; any of them can leave the float range.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            state_from_params(mu0, r0, d=np.array(d)).occupation
    except (ArithmeticError, ValueError):  # overflow; inf or nan entries
        return False
    return True


def _check_normal(keys: tuple[str, ...], name: str, value: float, at: str) -> None:
    """ConfigError naming ``keys`` unless ``value`` is a positive normal float."""
    if not sys.float_info.min <= value <= sys.float_info.max:
        names = f"{', '.join(keys[:-1])} and {keys[-1]}" if len(keys) > 1 else keys[0]
        raise ConfigError(
            f"{names}: {name} = {value:.4g}{at} is not a positive normal float"
            " (the rates or the three-body half-life divide by it)"
        )


def _check_rate_in_range(
    key: str, omega: float, params: CondensateParams, source: str
) -> None:
    """ConfigError naming ``key`` unless the rate formula that ``source``
    takes at ``omega`` (``damping.regime_of``) stays in the float range;
    each rate grows with the frequency.

    The quantum closed form raises w to the fifth power (Python's ``**``
    raises OverflowError above 4.476546622757235e61 rad/s, numpy's gives
    inf) and divides by m n c_s^5, and its split multiplies by 1 + 2 N_th;
    the collision integrals invert the dispersion through 2 w**2.
    """
    regime = regime_of(omega, params, source)
    if regime == "quantum":
        try:
            rates = split_rates(
                gamma_beliaev_asymptotic(omega, params), omega, params.temperature
            )
        except OverflowError:
            rates = (math.inf,)
        if not all(map(math.isfinite, rates)):
            raise ConfigError(
                f"{key}: the quantum rate (3/640 pi) hbar w^5 / (m n c_s^5)"
                f" overflows at {omega!r} rad/s"
            )
    elif regime == "integral" and 2.0 * (omega * omega) > sys.float_info.max:
        raise ConfigError(
            f"{key}: the collision integrals' 2 w^2 overflows at {omega!r} rad/s"
            " (use at most 9.480751908109176e+153)"
        )


def validate_config(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a raw mapping, rejecting anything off-schema.

    Each species constant (``mass_kg``, ``scattering_length_m``,
    ``three_body_l3_m6_per_s``) is the given key, else the species preset's
    value; a constant with neither is a ``ConfigError`` naming the key.
    ``custom`` is the species with no preset values.  A key whose value is
    null is the same as an absent key.  Every condensate the config sets,
    its own and one per sweep speed of sound, must be dilute (n a^3 < 1),
    and ``temperature_K`` must lie below the ideal-gas T_c of each.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of keys to values")
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    raw = {key: value for key, value in raw.items() if value is not None}

    species = raw.get("species", "rb87")
    if not isinstance(species, str):
        raise ConfigError("species: expected a string")
    species = species.lower()
    if species != "custom" and species not in SPECIES_PRESETS:
        raise ConfigError(
            f"species: {species!r} is not a preset (use "
            f"{', '.join(sorted(SPECIES_PRESETS))} or custom)"
        )

    preset = SPECIES_PRESETS.get(species, {})  # custom has no values
    constants = {}
    for key in ("mass_kg", "scattering_length_m", "three_body_l3_m6_per_s"):
        value = raw.get(key, preset.get(key))
        if value is None:
            raise ConfigError(f"species {species} requires {key}")
        constants[key] = _number(key, value, positive=True)

    c_s = raw.get("speed_of_sound_m_per_s")
    n = raw.get("density_per_m3")
    if (c_s is None) == (n is None):
        raise ConfigError(
            "exactly one of speed_of_sound_m_per_s / density_per_m3 is required"
        )
    if c_s is not None:
        c_s = _number("speed_of_sound_m_per_s", c_s, positive=True)
    if n is not None:
        n = _number("density_per_m3", n, positive=True)

    if "temperature_K" not in raw:
        raise ConfigError("temperature_K is required")
    temperature = _number("temperature_K", raw["temperature_K"], nonnegative=True)
    if temperature > 0.0 and K_B * temperature == 0.0:
        # every rate divides by k_B T; below ~1.79e-301 K it underflows to 0
        raise ConfigError(
            f"temperature_K: k_B T underflows to 0 at {temperature!r} K"
            " (use 0, or at least 1.8e-301)"
        )

    if "mode_frequency_rad_per_s" not in raw:
        raise ConfigError("mode_frequency_rad_per_s is required")
    omega_q = _frequency("mode_frequency_rad_per_s", raw["mode_frequency_rad_per_s"])

    r0 = _number("initial_squeezing", raw.get("initial_squeezing", 0.0), nonnegative=True)
    if "initial_purity" in raw and "initial_thermal_occupation" in raw:
        raise ConfigError(
            "give initial_purity or initial_thermal_occupation, not both"
        )
    if "initial_thermal_occupation" in raw:
        n0_th = _number(
            "initial_thermal_occupation",
            raw["initial_thermal_occupation"],
            nonnegative=True,
        )
        mu0 = 1.0 / (1.0 + 2.0 * n0_th)
    else:
        mu0 = _number("initial_purity", raw.get("initial_purity", 1.0), positive=True)
        if mu0 > 1.0:
            raise ConfigError("initial_purity: must be <= 1")
    if not _initial_state_is_finite(mu0, r0):
        purity_key = (
            "initial_thermal_occupation"
            if "initial_thermal_occupation" in raw
            else "initial_purity"
        )
        alone = (("initial_squeezing", 1.0, r0), (purity_key, mu0, 0.0))
        keys = [key for key, mu, r in alone if not _initial_state_is_finite(mu, r)]
        keys = keys or ["initial_squeezing", purity_key]  # only the pair overflows
        raise ConfigError(
            f"{' and '.join(keys)}: the initial covariance overflows"
            " (entries e^(2r)/(2 mu), det 1/(4 mu^2))"
        )

    disp = raw.get("initial_displacement", [0.0, 0.0])
    if not (isinstance(disp, (list, tuple)) and len(disp) == 2):
        raise ConfigError("initial_displacement: expected a pair [x, p]")
    disp = (
        _number("initial_displacement[0]", disp[0]),
        _number("initial_displacement[1]", disp[1]),
    )
    if not _initial_state_is_finite(mu0, r0, disp):  # the covariance alone passed
        raise ConfigError(
            "initial_displacement: the initial occupation overflows"
            " (kappa^2 (Tr sigma + d.d) - 1/2)"
        )

    t_max = _number("time_max_s", raw.get("time_max_s", 6.0), positive=True)
    t_points = raw.get("time_points", 500)
    if not isinstance(t_points, int) or isinstance(t_points, bool) or t_points < 2:
        raise ConfigError("time_points: expected an integer >= 2")

    rate_source = raw.get("rate_source", "auto")
    if rate_source not in RATE_SOURCES:
        raise ConfigError(
            f"rate_source: {rate_source!r} not in {'/'.join(RATE_SOURCES)}"
        )
    gamma_explicit = raw.get("gamma_explicit_per_s")
    if rate_source == "explicit":
        if gamma_explicit is None:
            raise ConfigError("rate_source explicit requires gamma_explicit_per_s")
        gamma_explicit = _number(
            "gamma_explicit_per_s", gamma_explicit, nonnegative=True
        )
    elif gamma_explicit is not None:
        raise ConfigError("gamma_explicit_per_s is only valid with rate_source explicit")

    quad_tol = _number(
        "quadrature_rel_tol",
        raw.get("quadrature_rel_tol", DEFAULT_QUADRATURE.rel_tol),
        positive=True,
    )
    if quad_tol >= 1.0:  # the first panel's estimate would pass any integral
        raise ConfigError("quadrature_rel_tol: must be < 1")
    quad_max = raw.get(
        "quadrature_max_subdivisions", DEFAULT_QUADRATURE.max_subdivisions
    )
    if not isinstance(quad_max, int) or quad_max < 10:
        raise ConfigError("quadrature_max_subdivisions: expected an integer >= 10")

    sweep_min = raw.get("sweep_omega_min_rad_per_s")
    sweep_max = raw.get("sweep_omega_max_rad_per_s")
    sweep_points = raw.get("sweep_points", 50)
    if not isinstance(sweep_points, int) or sweep_points < 2:
        raise ConfigError("sweep_points: expected an integer >= 2")
    sweep_speeds = raw.get("sweep_speeds_of_sound_m_per_s", [])
    if (sweep_min is None) != (sweep_max is None):
        raise ConfigError("sweep frequency range requires both min and max")
    if sweep_min is not None:
        sweep_min = _frequency("sweep_omega_min_rad_per_s", sweep_min)
        sweep_max = _number("sweep_omega_max_rad_per_s", sweep_max, positive=True)
        if sweep_max <= sweep_min:
            raise ConfigError("sweep_omega_max_rad_per_s must exceed the minimum")
    if not isinstance(sweep_speeds, (list, tuple)):
        raise ConfigError("sweep_speeds_of_sound_m_per_s: expected a list")
    sweep_speeds = tuple(
        _number("sweep_speeds_of_sound_m_per_s[]", v, positive=True)
        for v in sweep_speeds
    )

    # (key, speed of sound, density) of every condensate the config sets
    condensates = (
        ("speed_of_sound_m_per_s" if n is None else "density_per_m3", c_s, n),
        *(("sweep_speeds_of_sound_m_per_s[]", c, None) for c in sweep_speeds),
    )
    # Every condensate must be dilute, n a^3 << 1 (Bogoliubov theory), and
    # give positive normal floats for what the outputs divide by: g, n,
    # mu = m c_s^2 and m n hbar^3 c_s^5 (the smaller of the closed forms'
    # denominators; the other is m n c_s^5) in the rates, and L3 n^2 in the
    # three-body half-life.  Each is computed in bec's order with products
    # for **, which raises OverflowError where a product gives inf; so this
    # comes before any CondensateParams, which squares c_s with **.
    m, a = constants["mass_kg"], constants["scattering_length_m"]
    coupling = 4.0 * math.pi * HBAR**2 * a  # g before the division by m
    _check_normal(("scattering_length_m",), "4 pi hbar^2 a", coupling, "")
    g = coupling / m
    _check_normal(("mass_kg", "scattering_length_m"), "g = 4 pi hbar^2 a / m", g, "")
    for key, speed, density in condensates:
        at = f" at {speed if density is None else density!r}"
        if density is None:  # n = m c_s^2 / g = m^2 c_s^2 / (4 pi hbar^2 a)
            x = m * speed * a / HBAR
            gas = x * x / (4.0 * math.pi)
        else:
            gas = density * a * a * a
        if not gas < 1.0:
            raise ConfigError(
                f"{key}: the gas parameter n a^3 = {gas:.4g}{at} is not below 1;"
                " Bogoliubov theory needs n a^3 << 1"
            )
        sets_c = (key, "mass_kg", "scattering_length_m")  # the keys setting c_s
        if density is None:
            density, sets_n = m * (speed * speed) / g, sets_c
        else:
            speed, sets_n = math.sqrt(g * density / m), (key,)
        _check_normal(sets_n, "n", density, at)
        _check_normal(sets_c, "m c_s^2", m * (speed * speed), at)
        c5 = speed * speed * speed * speed * speed
        _check_normal(sets_c, "m n hbar^3 c_s^5", m * density * HBAR**3 * c5, at)
        l3_n2 = constants["three_body_l3_m6_per_s"] * density * density
        _check_normal((*sets_n, "three_body_l3_m6_per_s"), "L3 n^2", l3_n2, at)

    # every condensate the config sets, built as the verbs build it
    built = [
        CondensateParams(
            m, a, temperature, speed_of_sound=speed or 0.0, density=density or 0.0
        )
        for _, speed, density in condensates
    ]
    # the Bogoliubov rates need a condensate at every density the config
    # sets; the slowest speed of sound has the lowest density and T_c
    sparsest = min(built, key=lambda params: params.density)
    if temperature >= sparsest.critical_temperature:
        raise ConfigError(
            f"temperature_K: {temperature!r} K is at or above T_c ="
            f" {sparsest.critical_temperature:.4g} K, the ideal-gas condensation"
            f" temperature at density {sparsest.density:.4g} m^-3; the rates"
            " need a condensate"
        )

    # the highest frequency each condensate runs at: the mode frequency on
    # the config's own, the sweep's top on each sweep speed of sound, or on
    # the own speed of sound without a list
    _check_rate_in_range("mode_frequency_rad_per_s", omega_q, built[0], rate_source)
    if sweep_max is not None:
        swept = built[1:] or [
            CondensateParams(m, a, temperature, speed_of_sound=built[0].speed_of_sound)
        ]
        for params in swept:
            _check_rate_in_range(
                "sweep_omega_max_rad_per_s", sweep_max, params, rate_source
            )

    return ScenarioConfig(
        species=species,
        **constants,
        speed_of_sound_m_per_s=c_s,
        density_per_m3=n,
        temperature_K=temperature,
        mode_frequency_rad_per_s=omega_q,
        initial_squeezing=r0,
        initial_purity=mu0,
        initial_displacement=disp,
        time_max_s=t_max,
        time_points=t_points,
        rate_source=rate_source,
        gamma_explicit_per_s=gamma_explicit,
        quadrature_rel_tol=quad_tol,
        quadrature_max_subdivisions=quad_max,
        sweep_omega_min_rad_per_s=sweep_min,
        sweep_omega_max_rad_per_s=sweep_max,
        sweep_points=sweep_points,
        sweep_speeds_of_sound_m_per_s=sweep_speeds,
    )


def read_config_file(path: str | Path) -> dict:
    """The raw mapping of a YAML or JSON scenario file; an empty file is an
    empty mapping.

    The file is read once, as UTF-8 text (else a ``ConfigError`` naming it).
    Text that the standard library's ``json`` parses is taken as parsed;
    other text goes to PyYAML.  JSON is a subset of YAML, and both readings
    of a JSON document validate to the same config: YAML 1.1 reads ``1e5``
    as a string, which ``_number`` converts and the integer keys reject as
    they reject the float.  ``json`` alone accepts tabs as whitespace and
    raw non-printable characters (DEL) in strings.  A YAML syntax error is a
    one-line ``ConfigError`` naming the file, the 1-based line and column,
    and the parser's problem.  Each parser is imported when first needed, so
    a run from presets alone loads neither and a JSON file no PyYAML.
    """
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        import yaml

        stream = io.StringIO(text)
        stream.name = str(path)  # which PyYAML's reader errors name
        try:
            raw = yaml.safe_load(stream)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            at = f" line {mark.line + 1}, column {mark.column + 1}:" if mark else ""
            problem = " ".join((getattr(exc, "problem", None) or str(exc)).split())
            raise ConfigError(f"{path}:{at} {problem}") from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping of keys to values")
    return raw


# Worked-example presets: an 87Rb condensate at 0.5 nK with c_s = 3.4 mm/s.
# fig1 follows one strongly squeezed 10 krad/s mode; fig2 sweeps the mode
# frequency for a few speeds of sound.
PRESETS: dict[str, dict] = {
    "fig1": {
        "species": "rb87",
        "speed_of_sound_m_per_s": 3.4e-3,
        "temperature_K": 0.5e-9,
        "mode_frequency_rad_per_s": 1.0e4,
        "initial_squeezing": 10.0,
        "initial_purity": 1.0,
        "time_max_s": 6.0,
        "time_points": 500,
        "rate_source": "auto",
    },
}
PRESETS["fig2"] = {
    **PRESETS["fig1"],
    "sweep_omega_min_rad_per_s": 1.0e3,
    "sweep_omega_max_rad_per_s": 1.0e4,
    "sweep_points": 50,
    "sweep_speeds_of_sound_m_per_s": [1.7e-3, 3.4e-3, 6.8e-3],
}


def preset_config(name: str, overrides: dict | None = None) -> ScenarioConfig:
    """A shipped preset, optionally overlaid with config-file keys."""
    try:
        base = dict(PRESETS[name])
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}") from None
    if overrides:
        base.update(overrides)
    return validate_config(base)
