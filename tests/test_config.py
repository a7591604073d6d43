"""Scenario schema validation, presets and the scenario file reader."""

import json
import re
import tempfile
from pathlib import Path

import pytest
import yaml
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


# --- the scenario file reader: JSON by the standard library, else PyYAML ---


def key_words(message: str) -> set[str]:
    """The config keys a ConfigError message names."""
    return set(re.findall(r"[a-z0-9_]+", message)) & _KNOWN_KEYS


def outcome_of(raw) -> object:
    """The validated config's repr (every float's bits), else the error's
    type and the keys its message names."""
    try:
        return repr(validate_config(raw))
    except ConfigError as exc:
        return "ConfigError", key_words(str(exc))
    except ArithmeticError as exc:  # an integer beyond the float range
        return type(exc).__name__


def number_forms(value: float) -> list[str]:
    """``value`` written as JSON numbers in several forms, some rounding it."""
    mantissa, exponent = f"{value:.15e}".split("e")
    mantissa = mantissa.rstrip("0").rstrip(".")
    return [
        repr(value),  # what json.dumps writes: 0.0034, 1e-05, 1e+16
        f"{mantissa}e{int(exponent)}",  # 3.4e-3: a string to YAML 1.1
        f"{mantissa}E{int(exponent):+d}",  # 3.4E-3, 1E+4
        f"{value:.6e}",  # 3.400000e-03: a float to YAML 1.1
        f"{value:.17g}",
    ]


# JSON numbers from their grammar: 1e5, 1.0e+4, -0.0, 12345678901234567890, ...
JSON_NUMBERS = st.from_regex(
    r"-?(0|[1-9][0-9]{0,20})(\.[0-9]{1,3})?([eE][-+]?[0-9]{1,3})?", fullmatch=True
)
# strings with escapes; json.dumps writes DEL raw, which PyYAML rejects
STRINGS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x7f"),
    max_size=8,
).map(json.dumps)
SCALARS = st.one_of(
    JSON_NUMBERS,
    # the forms above at integer keys, and zero with a sign
    st.sampled_from(["5e2", "500.0", "5.0E+2", "1e5", "1.0e+4", "-0.0", "-0"]),
    st.sampled_from(["true", "false", "null"]),
    STRINGS,
    st.sampled_from(["rb87", "RB87", "yb174", "custom", "auto", "asymptotic",
                     "integral", "explicit"]).map(json.dumps),
)
VALUES = st.one_of(
    SCALARS, st.lists(JSON_NUMBERS, max_size=3).map(lambda xs: f"[{', '.join(xs)}]")
)
# fig2 with every key it lacks: the mode's initial state, a thermal
# occupation, a displacement and the quadrature controls
SCENARIO = {
    **PRESETS["fig2"],
    "initial_displacement": [0.5, -0.25],
    "quadrature_rel_tol": 1e-6,
    "quadrature_max_subdivisions": 200,
}


def written(value) -> st.SearchStrategy[str]:
    """A JSON text of ``value``: a float in one of its written forms."""
    if isinstance(value, list):
        return st.tuples(*map(written, value)).map(lambda xs: f"[{', '.join(xs)}]")
    if isinstance(value, float):
        return st.sampled_from(number_forms(value))
    return st.just(json.dumps(value))


@st.composite
def scenario_documents(draw) -> str:
    """A flat scenario mapping as a JSON document: fig2's keys in written
    forms, a few replaced, dropped or added with any JSON value."""
    texts = {key: draw(written(value)) for key, value in SCENARIO.items()}
    for key in draw(st.lists(st.sampled_from(sorted(_KNOWN_KEYS)), max_size=3)):
        replacement = draw(st.one_of(st.none(), VALUES))
        if replacement is None:
            texts.pop(key, None)
        else:
            texts[key] = replacement
    separator = draw(st.sampled_from([", ", ",\n  ", ","]))
    return "{" + separator.join(f"{json.dumps(k)}: {v}" for k, v in texts.items()) + "}"


@settings(max_examples=150, deadline=None)
@given(scenario_documents())
def test_a_json_scenario_validates_as_its_yaml_reading(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(document, encoding="utf-8")
        raw = read_config_file(path)
    assert raw == json.loads(document)
    assert outcome_of(raw) == outcome_of(yaml.safe_load(document))


# (file text, the reader's mapping or the ConfigError it raises), each what
# PyYAML alone gives for the text
AS_BEFORE = [
    ("", {}),
    ("null\n", {}),
    ("[1, 2]\n", "config must be a mapping"),
    ("NaN\n", "config must be a mapping"),
    ('\ufeff{"time_points": 5}\n', {"time_points": 5}),  # json rejects the BOM
    ('{"time_points": 5,}\n', {"time_points": 5}),  # and the trailing comma
    ("time_points: 1e5\n", {"time_points": "1e5"}),  # YAML 1.1's string
]


@pytest.mark.parametrize("text, expected", AS_BEFORE)
def test_a_scenario_file_reads_as_before(tmp_path, text, expected):
    path = tmp_path / "s.json"
    path.write_text(text, encoding="utf-8")
    if isinstance(expected, dict):
        assert read_config_file(path) == expected
    else:
        with pytest.raises(ConfigError, match=expected):
            read_config_file(path)


def test_json_accepts_what_yaml_rejects(tmp_path):
    # the two documented differences: a tab as whitespace, and a raw DEL in
    # a string, which PyYAML rejects as a non-printable character
    for text, raw in [
        ('{\n\t"time_points": 5\n}\n', {"time_points": 5}),
        ('{"species": "rb\x7f"}\n', {"species": "rb\x7f"}),
    ]:
        path = tmp_path / "s.json"
        path.write_text(text)
        with pytest.raises(yaml.YAMLError):
            yaml.safe_load(text)
        assert read_config_file(path) == raw
    with pytest.raises(ConfigError, match="^species: "):
        validate_config({"species": "rb\x7f"})


def test_a_yaml_reader_error_names_the_file(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("species: rb\x7f\n")
    with pytest.raises(ConfigError) as excinfo:
        read_config_file(path)
    assert str(excinfo.value) == (
        f"{path}: unacceptable character #x007f: special characters are not"
        f' allowed in "{path}", position 11'
    )
