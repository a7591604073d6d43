"""Scenario configuration: schema, validation, and the shipped presets.

Configs are flat YAML mappings with unit-annotated keys (always SI).
Unknown keys are rejected so typos cannot silently change a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .bec import CondensateParams
from .constants import SPECIES_PRESETS
from .damping import DEFAULT_QUADRATURE, RATE_SOURCES
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


def validate_config(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a raw mapping, rejecting anything off-schema.

    Each species constant (``mass_kg``, ``scattering_length_m``,
    ``three_body_l3_m6_per_s``) is the given key, else the species preset's
    value; a constant with neither is a ``ConfigError`` naming the key.
    ``custom`` is the species with no preset values.  A key whose value is
    null is the same as an absent key.
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

    preset = SPECIES_PRESETS.get(species)  # None for custom
    constants = {}
    for key, attr in (
        ("mass_kg", "mass"),
        ("scattering_length_m", "scattering_length"),
        ("three_body_l3_m6_per_s", "three_body_l3"),
    ):
        value = raw.get(key, getattr(preset, attr, None))
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

    if "mode_frequency_rad_per_s" not in raw:
        raise ConfigError("mode_frequency_rad_per_s is required")
    omega_q = _number(
        "mode_frequency_rad_per_s", raw["mode_frequency_rad_per_s"], positive=True
    )

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
        sweep_min = _number("sweep_omega_min_rad_per_s", sweep_min, positive=True)
        sweep_max = _number("sweep_omega_max_rad_per_s", sweep_max, positive=True)
        if sweep_max <= sweep_min:
            raise ConfigError("sweep_omega_max_rad_per_s must exceed the minimum")
    if not isinstance(sweep_speeds, (list, tuple)):
        raise ConfigError("sweep_speeds_of_sound_m_per_s: expected a list")
    sweep_speeds = tuple(
        _number("sweep_speeds_of_sound_m_per_s[]", v, positive=True)
        for v in sweep_speeds
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
    """The raw mapping of a YAML scenario file; an empty file is an empty mapping.

    A YAML syntax error is a one-line ``ConfigError`` naming the file, the
    1-based line and column, and the parser's problem.  PyYAML is imported
    here, so a run from presets alone does not load it.
    """
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
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
