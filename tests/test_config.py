"""Scenario schema validation and presets."""

import pytest

from phonodec.config import (
    ConfigError,
    PRESETS,
    preset_config,
    read_config_file,
    validate_config,
)

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
    raw.update(mass_kg=1.4e-25, scattering_length_m=5e-9)
    cfg = validate_config(raw)
    assert cfg.condensate().mass == 1.4e-25


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
