"""Scenario schema validation and presets."""

import pytest
from hypothesis import given, settings, strategies as st

from phonodec.config import (
    _KNOWN_KEYS,
    ConfigError,
    PRESETS,
    preset_config,
    read_config_file,
    validate_config,
)
from phonodec.constants import SPECIES_PRESETS
from phonodec.runs import resolve_rate, run_header

MINIMAL = {
    "species": "rb87",
    "speed_of_sound_m_per_s": 3.4e-3,
    "temperature_K": 0.5e-9,
    "mode_frequency_rad_per_s": 1.0e4,
}


def test_minimal_config_defaults():
    cfg = validate_config(dict(MINIMAL))
    assert cfg.initial_squeezing == 0.0
    assert cfg.initial_purity == 1.0
    assert cfg.rate_source == "auto"
    assert cfg.three_body_l3_m6_per_s == pytest.approx(5.8e-42)
    assert not cfg.has_sweep()
    params = cfg.condensate()
    assert params.density == pytest.approx(3.24e20, rel=0.01)


def test_unknown_key_named_in_error():
    raw = dict(MINIMAL, bogus_key=1.0)
    with pytest.raises(ConfigError, match="bogus_key"):
        validate_config(raw)


def test_required_keys():
    for missing in ("temperature_K", "mode_frequency_rad_per_s"):
        raw = dict(MINIMAL)
        del raw[missing]
        with pytest.raises(ConfigError, match=missing):
            validate_config(raw)


def test_exclusive_speed_density():
    raw = dict(MINIMAL, density_per_m3=3.2e20)
    with pytest.raises(ConfigError, match="exactly one"):
        validate_config(raw)
    raw = dict(MINIMAL)
    del raw["speed_of_sound_m_per_s"]
    with pytest.raises(ConfigError):
        validate_config(raw)


def test_exclusive_purity_occupation():
    raw = dict(MINIMAL, initial_purity=0.9, initial_thermal_occupation=0.5)
    with pytest.raises(ConfigError, match="not both"):
        validate_config(raw)
    cfg = validate_config(dict(MINIMAL, initial_thermal_occupation=0.5))
    assert cfg.initial_purity == pytest.approx(0.5)


def test_explicit_rate_requirements():
    with pytest.raises(ConfigError, match="gamma_explicit_per_s"):
        validate_config(dict(MINIMAL, rate_source="explicit"))
    with pytest.raises(ConfigError, match="gamma_explicit_per_s"):
        validate_config(dict(MINIMAL, gamma_explicit_per_s=1.0))
    cfg = validate_config(
        dict(MINIMAL, rate_source="explicit", gamma_explicit_per_s=0.5)
    )
    assert cfg.gamma_explicit_per_s == 0.5


def test_custom_species_requires_mass_and_length():
    raw = dict(MINIMAL, species="custom")
    with pytest.raises(ConfigError, match="custom"):
        validate_config(raw)
    raw.update(
        mass_kg=1.4e-25, scattering_length_m=5e-9, three_body_l3_m6_per_s=5.8e-42
    )
    cfg = validate_config(raw)
    assert cfg.condensate().mass == 1.4e-25


# each species constant: its config key and a range of positive values to
# draw it from
SPECIES_CONSTANTS = (
    ("mass_kg", (1e-27, 1e-24)),
    ("scattering_length_m", (1e-10, 1e-7)),
    ("three_body_l3_m6_per_s", (1e-44, 1e-38)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["rb87", "yb174", "custom"]),
    st.fixed_dictionaries(
        {},
        optional={
            key: st.floats(lo, hi) for key, (lo, hi) in SPECIES_CONSTANTS
        },
    ),
)
def test_species_constants_are_the_key_else_the_preset(species, keys):
    raw = dict(
        MINIMAL, species=species, rate_source="explicit", gamma_explicit_per_s=0.5
    )
    raw.update(keys)
    preset = SPECIES_PRESETS.get(species, {})
    expected = {key: keys.get(key, preset.get(key)) for key, _ in SPECIES_CONSTANTS}
    missing = [key for key, value in expected.items() if value is None]
    if missing:
        with pytest.raises(ConfigError, match=f"species {species} requires {missing[0]}"):
            validate_config(raw)
        return
    config = validate_config(raw)
    params = config.condensate()
    header = run_header(config, params, resolve_rate(config, params))
    assert params.mass == expected["mass_kg"]
    assert params.scattering_length == expected["scattering_length_m"]
    assert header["three_body_l3_m6_per_s"] == expected["three_body_l3_m6_per_s"]
    assert header["species"] == species


def test_sweep_points_checked_without_a_sweep_range():
    for bad in ("many", 1):
        with pytest.raises(ConfigError, match="sweep_points"):
            preset_config("fig1", {"sweep_points": bad})
    assert preset_config("fig1").sweep_points == 50


def test_sweep_range_validation():
    raw = dict(MINIMAL, sweep_omega_min_rad_per_s=1e3)
    with pytest.raises(ConfigError, match="sweep"):
        validate_config(raw)
    raw = dict(
        MINIMAL, sweep_omega_min_rad_per_s=1e3, sweep_omega_max_rad_per_s=1e2
    )
    with pytest.raises(ConfigError, match="exceed"):
        validate_config(raw)


def test_yaml_exponent_strings_coerced():
    cfg = validate_config(dict(MINIMAL, mode_frequency_rad_per_s="1.0e4"))
    assert cfg.mode_frequency_rad_per_s == 1.0e4
    with pytest.raises(ConfigError, match="expected a number"):
        validate_config(dict(MINIMAL, mode_frequency_rad_per_s="fast"))


def test_presets_validate():
    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg.initial_squeezing == 10.0
    assert preset_config("fig2").has_sweep()
    with pytest.raises(ConfigError):
        preset_config("fig3")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(
        "species: rb87\n"
        "speed_of_sound_m_per_s: 3.4e-3\n"
        "temperature_K: 0.5e-9\n"
        "mode_frequency_rad_per_s: 1.0e+4\n"
        "initial_squeezing: 10\n"
    )
    cfg = validate_config(read_config_file(path))
    assert cfg.initial_squeezing == 10.0
    assert cfg.mode_frequency_rad_per_s == 1.0e4


def test_unknown_species_is_rejected():
    with pytest.raises(ConfigError, match="species: 'unknowium' is not a preset"):
        validate_config(dict(MINIMAL, species="unknowium"))


def outcome(build):
    """The config ``build`` returns, or the message of its ConfigError."""
    try:
        return build()
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@pytest.mark.parametrize("key", sorted(_KNOWN_KEYS))
def test_null_key_is_an_absent_key(key):
    absent = {k: v for k, v in PRESETS["fig2"].items() if k != key}
    assert outcome(lambda: preset_config("fig2", {key: None})) == outcome(
        lambda: validate_config(absent)
    )


def test_null_purity_lets_a_thermal_occupation_overlay_a_preset():
    overlay = {"initial_purity": None, "initial_thermal_occupation": 2}
    assert preset_config("fig1", overlay).initial_purity == 0.2
    with pytest.raises(ConfigError, match="not both"):
        preset_config("fig1", {"initial_thermal_occupation": 2})
