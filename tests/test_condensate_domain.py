"""The temperature domain: a run needs a condensate, so ``temperature_K``
must lie below the ideal-gas T_c at every density the config sets; and the
contract of the integral rate sources over that domain.

T_c = (2 pi hbar^2 / (m k_B)) (n / zeta(3/2))^(2/3) is computed here on its
own, with zeta(3/2) from mpmath and n = m c_s^2 / g.
"""

import io
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from condensates import rb87
from phonodec.cli import main as cli_main
from phonodec.constants import HBAR, K_B, RB87

MASS = RB87["mass_kg"]
COUPLING = 4.0 * math.pi * HBAR**2 * RB87["scattering_length_m"] / MASS
ZETA_3_2 = float(mpmath.zeta(1.5))


def t_c_at_density(density: float) -> float:
    return 2.0 * math.pi * HBAR**2 / (MASS * K_B) * (density / ZETA_3_2) ** (2.0 / 3.0)


def t_c_at_speed(speed_of_sound: float) -> float:
    return t_c_at_density(MASS * speed_of_sound**2 / COUPLING)


def run(tmp_path, verb: str, preset: str | None, overlay: str) -> tuple[int, str, str]:
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(overlay)
    argv = [verb, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
    if preset is not None:
        argv += ["--preset", preset]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli_main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def assert_rejected_temperature(tmp_path, code: int, stderr: str, t_c: float) -> None:
    assert code == 2
    assert stderr.startswith("error: temperature_K: ") and stderr.count("\n") == 1
    assert f"T_c = {t_c:.4g} K" in stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("speed_of_sound, t_c_nk", [(1.7e-3, 346), (3.4e-3, 873), (6.8e-3, 2200)])
def test_critical_temperature_at_fig2_speeds(speed_of_sound, t_c_nk):
    t_c = rb87(0.0, speed_of_sound).critical_temperature
    assert t_c == pytest.approx(t_c_at_speed(speed_of_sound), rel=1e-14, abs=0.0)
    assert round(t_c * 1e9) == t_c_nk


# (verb, preset, overlay): each ran to exit 0, or failed with a line that
# names no key, with no condensate at all
ABOVE_T_C = [
    ("rates", "fig1", "rate_source: integral\ntemperature_K: 1.0e+9\n"),
    ("rates", "fig1", "rate_source: integral\ntemperature_K: 1.0e+20\n"),
    ("rates", "fig1", "rate_source: asymptotic\ntemperature_K: 1.0e+300\n"),
    ("sweep", "fig2", "rate_source: asymptotic\ntemperature_K: 1.0e+146\n"),
    ("rates", "fig1", "temperature_K: 1.0e-6\n"),
    ("trajectory", "fig1", "temperature_K: 1.0e-6\n"),
    ("sweep", "fig2", "temperature_K: 1.0e-6\n"),
]


@pytest.mark.parametrize("verb, preset, overlay", ABOVE_T_C)
def test_temperature_above_t_c_is_rejected(tmp_path, verb, preset, overlay):
    code, stdout, stderr = run(tmp_path, verb, preset, overlay)
    # fig2's slowest speed of sound, 1.7 mm/s, sets its bound
    t_c = t_c_at_speed(3.4e-3 if preset == "fig1" else 1.7e-3)
    assert_rejected_temperature(tmp_path, code, stderr, t_c)
    assert stdout == ""


DENSITY = 1.0e20


@pytest.mark.parametrize("factor, accepted", [(1.0 - 1e-9, True), (1.0 + 1e-9, False)])
def test_density_config_just_below_and_above_t_c(tmp_path, factor, accepted):
    t_c = t_c_at_density(DENSITY)
    code, stdout, stderr = run(
        tmp_path, "rates", None,
        f"species: rb87\ndensity_per_m3: {DENSITY!r}\n"
        f"temperature_K: {t_c * factor!r}\nmode_frequency_rad_per_s: 1.0e+3\n",
    )
    if accepted:
        assert (code, stderr) == (0, "")
        assert "regime                   thermal_high\n" in stdout
        return
    assert_rejected_temperature(tmp_path, code, stderr, t_c)


@pytest.mark.parametrize("factor, accepted", [(1.0 - 1e-9, True), (1.0 + 1e-9, False)])
def test_sweep_just_below_and_above_the_slowest_speeds_t_c(tmp_path, factor, accepted):
    # fig2's own condensate (3.4 mm/s) is well below its T_c here
    t_c = t_c_at_speed(1.7e-3)
    code, stdout, stderr = run(
        tmp_path, "sweep", "fig2", f"temperature_K: {t_c * factor!r}\nsweep_points: 5\n"
    )
    if accepted:
        assert (code, stderr) == (0, "") and stdout.startswith("wrote ")
        return
    assert_rejected_temperature(tmp_path, code, stderr, t_c)


def decades(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda exponent: 10.0**exponent)


# The integral sources over the accepted domain: any speed of sound and
# frequency, any temperature from 0 up to (not including) T_c.
INTEGRAL_SCENARIOS = st.fixed_dictionaries({
    "rate_source": st.sampled_from(["auto", "integral"]),
    "speed_of_sound_m_per_s": decades(-4.0, -1.0),
    "mode_frequency_rad_per_s": decades(-1.0, 7.0),
    "fraction_of_t_c": st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
})


@settings(max_examples=60, deadline=None)
@given(INTEGRAL_SCENARIOS)
def test_integral_rates_are_finite_and_non_negative_or_one_error_line(scenario):
    fraction = scenario.pop("fraction_of_t_c")
    scenario["temperature_K"] = fraction * t_c_at_speed(scenario["speed_of_sound_m_per_s"])
    with tempfile.TemporaryDirectory() as tmp:
        overlay = "".join(f"{key}: {value!r}\n" for key, value in scenario.items())
        code, stdout, stderr = run(Path(tmp), "rates", "fig1", overlay)
    if code == 2:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        return
    assert (code, stderr) == (0, "")
    report = dict(line.split(maxsplit=1) for line in stdout.splitlines())
    for key in ("gamma_per_s", "gamma_1_per_s", "gamma_2_per_s"):
        value = float(report[key])
        assert math.isfinite(value) and value >= 0.0, (key, value)

