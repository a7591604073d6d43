"""The condensate domain: every density the config sets must be dilute
(gas parameter n a^3 < 1), and a run needs a condensate, so
``temperature_K`` must lie below the ideal-gas T_c at each of them; what
the outputs divide by must be positive normal floats, which bounds the
condensate keys from below at T = 0; and the contracts of the integral rate
sources over that domain and of every verb at T = 0.

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


# n a^3 = 1 at c_s = sqrt(4 pi) hbar / (m a), about 0.488 m/s for 87Rb
DILUTE_SPEED = math.sqrt(4.0 * math.pi) * HBAR / (MASS * RB87["scattering_length_m"])

# (verb, preset, overlay, key): each ended in a line that names no key,
# `error: (34, 'Numerical result out of range')`
NOT_DILUTE = [
    ("rates", "fig1", "speed_of_sound_m_per_s: 1.0e+62\n", "speed_of_sound_m_per_s"),
    ("rates", "fig1", "speed_of_sound_m_per_s: 1.0e+154\n", "speed_of_sound_m_per_s"),
    (
        "rates", "fig1", "speed_of_sound_m_per_s: null\ndensity_per_m3: 1.0e+300\n",
        "density_per_m3",
    ),
    (
        "sweep", "fig2", "sweep_speeds_of_sound_m_per_s: [1.7e-3, 1.0e+62]\n",
        "sweep_speeds_of_sound_m_per_s[]",
    ),
    (
        "trajectory", "fig1", f"speed_of_sound_m_per_s: {DILUTE_SPEED * (1.0 + 1e-9)!r}\n",
        "speed_of_sound_m_per_s",
    ),
    ("rates", "fig1", "mass_kg: 1.0e-22\n", "speed_of_sound_m_per_s"),
    (
        "rates", "fig1",
        "speed_of_sound_m_per_s: null\ndensity_per_m3: 1.0e+20\nscattering_length_m: 1.0e-6\n",
        "density_per_m3",
    ),
]


@pytest.mark.parametrize("verb, preset, overlay, key", NOT_DILUTE)
def test_a_gas_parameter_of_one_or_more_is_rejected(tmp_path, verb, preset, overlay, key):
    code, stdout, stderr = run(tmp_path, verb, preset, overlay)
    assert code == 2 and stdout == ""
    # every key that sets n a^3: a density and a, or a speed of sound, m and a
    sets_gas = " and" if key == "density_per_m3" else ", mass_kg and"
    assert stderr.startswith(
        f"error: {key}{sets_gas} scattering_length_m: the gas parameter n a^3 = "
    )
    assert stderr.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "verb, preset", [("rates", "fig1"), ("trajectory", "fig1"), ("sweep", "fig2")]
)
def test_every_verb_runs_just_below_a_gas_parameter_of_one(tmp_path, verb, preset):
    speed = DILUTE_SPEED * (1.0 - 1e-9)
    code, stdout, stderr = run(
        tmp_path, verb, preset,
        f"speed_of_sound_m_per_s: {speed!r}\nsweep_speeds_of_sound_m_per_s: [{speed!r}]\n"
        "time_points: 5\nsweep_points: 5\n",
    )
    assert (code, stderr) == (0, "")


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


GAMMA_KEYS = ("gamma_per_s", "gamma_1_per_s", "gamma_2_per_s")


def integral_run_rates(verb: str, scenario: dict) -> tuple[int, str, list[float]]:
    """(exit code, stderr, the damping rates the run reports): the net and
    up/down rates that ``rates`` prints or the trajectory header carries, or
    every row's net rate of the sweep, at the drawn speed of sound."""
    overlay = "".join(f"{key}: {value!r}\n" for key, value in scenario.items())
    overlay += (
        f"sweep_speeds_of_sound_m_per_s: [{scenario['speed_of_sound_m_per_s']!r}]\n"
        "sweep_points: 3\ntime_points: 5\n"
    )
    preset = "fig2" if verb == "sweep" else "fig1"
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, stderr = run(Path(tmp), verb, preset, overlay)
        if code != 0:
            return code, stderr, []
        if verb == "rates":
            report = dict(line.split(maxsplit=1) for line in stdout.splitlines())
            return code, stderr, [float(report[key]) for key in GAMMA_KEYS]
        lines = (Path(tmp) / "x.csv").read_text().splitlines()
    if verb == "trajectory":
        header = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
        return code, stderr, [float(header[key]) for key in GAMMA_KEYS]
    table = [line.split(",") for line in lines if not line.startswith("#")]
    column = table[0].index("gamma_per_s")
    return code, stderr, [float(row[column]) for row in table[1:]]


@pytest.mark.parametrize("verb", ["rates", "trajectory", "sweep"])
@settings(max_examples=60, deadline=None)
@given(scenario=INTEGRAL_SCENARIOS)
def test_integral_rates_are_finite_and_non_negative_or_one_error_line(verb, scenario):
    fraction = scenario.pop("fraction_of_t_c")
    scenario["temperature_K"] = fraction * t_c_at_speed(scenario["speed_of_sound_m_per_s"])
    code, stderr, rates = integral_run_rates(verb, scenario)
    if code == 2:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        return
    assert (code, stderr) == (0, "")
    assert rates
    for value in rates:
        assert math.isfinite(value) and value >= 0.0, value


# The lower ends at T = 0, where the T_c rule bounds nothing.  Each case
# ended in a line that names no key (`error: float division by zero`, or two
# numpy warnings and `error: damping rate must be finite and >= 0`), or ran
# and printed a rate that had lost digits to a subnormal (c_s = 1e-46 m/s,
# a = 1e-255 m), or printed an infinite three-body loss rate (a = 1e-255 m).
DENSITY_ONLY = "speed_of_sound_m_per_s: null\ndensity_per_m3: "
LOWER_ENDS = [
    ("speed_of_sound_m_per_s", "speed_of_sound_m_per_s: 1.0e-47\n"),
    ("speed_of_sound_m_per_s", "speed_of_sound_m_per_s: 1.0e-46\n"),
    ("density_per_m3", f"{DENSITY_ONLY}1.0e-70\n"),
    ("density_per_m3", f"{DENSITY_ONLY}1.0e-150\n"),
    ("mass_kg", "mass_kg: 1.0e-110\n"),
    ("scattering_length_m", "scattering_length_m: 1.0e-255\n"),
    ("scattering_length_m", "scattering_length_m: 1.0e-259\n"),
    ("scattering_length_m", f"{DENSITY_ONLY}1.0e+20\nscattering_length_m: 1.0e-134\n"),
]


def assert_rejected_naming(tmp_path, code: int, stdout: str, stderr: str, key: str) -> None:
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert key in stderr[len("error: "):].split(": ", 1)[0], stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("verb", ["rates", "trajectory", "sweep"])
@pytest.mark.parametrize("key, overlay", LOWER_ENDS)
def test_a_condensate_key_below_its_lower_end_is_rejected(tmp_path, verb, key, overlay):
    preset = "fig2" if verb == "sweep" else "fig1"
    code, stdout, stderr = run(tmp_path, verb, preset, f"temperature_K: 0\n{overlay}")
    assert_rejected_naming(tmp_path, code, stdout, stderr, key)


@pytest.mark.parametrize("rate_source", ["asymptotic", "integral"])
def test_a_sweep_speed_below_its_lower_end_is_rejected(tmp_path, rate_source):
    code, stdout, stderr = run(
        tmp_path, "sweep", "fig2",
        f"temperature_K: 0\nrate_source: {rate_source}\n"
        "sweep_speeds_of_sound_m_per_s: [1.7e-3, 1.0e-47]\n",
    )
    assert_rejected_naming(tmp_path, code, stdout, stderr, "sweep_speeds_of_sound_m_per_s")


def test_the_scattering_length_at_fig1s_temperature_is_rejected(tmp_path):
    code, stdout, stderr = run(tmp_path, "rates", "fig1", "scattering_length_m: 1.0e-300\n")
    assert_rejected_naming(tmp_path, code, stdout, stderr, "scattering_length_m")


# The smallest accepted value of each key over fig1's condensate at T = 0,
# found by bisection on floats: the next float down is rejected.  m n hbar^3
# c_s^5 sets each bound but the scattering length's at fixed c_s, where L3 n^2
# overflows.  The sweep runs at the config's own speed of sound.
JUST_INSIDE = [
    ("speed_of_sound_m_per_s", 3.34484105758067e-30, ""),
    ("density_per_m3", 3.1399574945985393e-34, "speed_of_sound_m_per_s: null\n"),
    ("mass_kg", 1.389121006413321e-88, ""),
    ("scattering_length_m", 3.094435039343026e-163, ""),
    ("scattering_length_m", 6.618930147597396e-84, f"{DENSITY_ONLY}1.0e+20\n"),
]


def lower_end_overlay(verb: str, key: str, value: float, extra: str) -> str:
    overlay = f"{extra}{key}: {value!r}\n"
    if verb == "sweep" and "density_per_m3" not in overlay:
        speed = value if key == "speed_of_sound_m_per_s" else 3.4e-3
        overlay += f"sweep_speeds_of_sound_m_per_s: [{speed!r}]\n"
    return overlay


@pytest.mark.parametrize("verb", ["rates", "trajectory", "sweep"])
@pytest.mark.parametrize("rate_source", ["auto", "integral"])
@pytest.mark.parametrize("key, value, extra", JUST_INSIDE)
def test_every_verb_runs_at_a_condensate_keys_lower_end(
    tmp_path, verb, rate_source, key, value, extra
):
    preset = "fig2" if verb == "sweep" else "fig1"
    base = f"temperature_K: 0\nrate_source: {rate_source}\ntime_points: 5\nsweep_points: 5\n"
    code, stdout, stderr = run(
        tmp_path, verb, preset, base + lower_end_overlay(verb, key, value, extra)
    )
    assert (code, stderr) == (0, "")
    (tmp_path / "x.csv").unlink(missing_ok=True)
    below = math.nextafter(value, 0.0)
    code, stdout, stderr = run(
        tmp_path, verb, preset, base + lower_end_overlay(verb, key, below, extra)
    )
    assert_rejected_naming(tmp_path, code, stdout, stderr, key)


@pytest.mark.parametrize("verb", ["rates", "sweep"])
@pytest.mark.parametrize("tolerance", ["1.0", "1.0e+290"])
def test_a_quadrature_tolerance_of_one_or_more_is_rejected(tmp_path, verb, tolerance):
    # from 1 the first panel's estimate passes; near 1e290 the run ended in
    # `error: overflow encountered in multiply`
    code, stdout, stderr = run(
        tmp_path, verb, "fig2" if verb == "sweep" else "fig1",
        f"rate_source: integral\nquadrature_rel_tol: {tolerance}\n",
    )
    assert_rejected_naming(tmp_path, code, stdout, stderr, "quadrature_rel_tol")


def test_a_quadrature_tolerance_just_below_one_runs(tmp_path):
    code, stdout, stderr = run(
        tmp_path, "rates", "fig1",
        f"rate_source: integral\nquadrature_rel_tol: {math.nextafter(1.0, 0.0)!r}\n",
    )
    assert (code, stderr) == (0, "")


CONDENSATE_KEYS = (
    "mass_kg", "scattering_length_m", "speed_of_sound_m_per_s", "density_per_m3",
    "sweep_speeds_of_sound_m_per_s",
)
# the outputs that must be finite: rates and header values, or table cells
FINITE_KEYS = (
    "speed_of_sound_m_per_s", "density_per_m3", *GAMMA_KEYS, "gamma_total_per_s",
    "mu_inf", "three_body_gamma0_per_s", "three_body_half_life_s",
)


def down_to_1e_300(lo: float, hi: float):
    """Log-uniform down to 1e-300, or (as often) over the decades [lo, hi]
    of laboratory condensates, so that a fair share of draws run."""
    return st.one_of(decades(-300.0, hi), decades(lo, hi))


# Species constants and a condensate at T = 0.
ZERO_T_SCENARIOS = st.fixed_dictionaries({
    "mass_kg": down_to_1e_300(-27.0, -23.0),
    "scattering_length_m": down_to_1e_300(-10.0, -7.0),
    "condensate": st.one_of(
        st.tuples(st.just("speed_of_sound_m_per_s"), down_to_1e_300(-5.0, -1.0)),
        st.tuples(st.just("density_per_m3"), down_to_1e_300(15.0, 22.0)),
    ),
})


def zero_t_run(verb: str, scenario: dict) -> tuple[int, str, list[float]]:
    """(exit code, stderr, the outputs that must be finite) of one run."""
    key, value = scenario.pop("condensate")
    overlay = "temperature_K: 0\ntime_points: 5\nsweep_points: 3\n"
    overlay += "".join(f"{k}: {v!r}\n" for k, v in scenario.items())
    if key == "density_per_m3":
        overlay += f"speed_of_sound_m_per_s: null\ndensity_per_m3: {value!r}\n"
    else:
        overlay += f"speed_of_sound_m_per_s: {value!r}\n"
        overlay += f"sweep_speeds_of_sound_m_per_s: [{value!r}]\n"
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, stderr = run(Path(tmp), verb, "fig2" if verb == "sweep" else "fig1", overlay)
        if code != 0:
            return code, stderr, []
        if verb == "rates":
            report = dict(line.split(maxsplit=1) for line in stdout.splitlines())
            return code, stderr, [float(report[k]) for k in FINITE_KEYS]
        lines = (Path(tmp) / "x.csv").read_text().splitlines()
    table = [line.split(",") for line in lines if not line.startswith("#")][1:]
    cells = [cell for row in table for cell in row if cell != "none"]
    if verb == "trajectory":
        header = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
        cells += [header[k] for k in FINITE_KEYS]
    return code, stderr, [float(cell) for cell in cells]


@pytest.mark.parametrize("verb", ["rates", "trajectory", "sweep"])
@settings(max_examples=80, deadline=None)
@given(scenario=ZERO_T_SCENARIOS)
def test_condensates_at_zero_temperature_give_finite_output_or_name_a_key(verb, scenario):
    code, stderr, outputs = zero_t_run(verb, scenario)
    if code == 2:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        named = stderr[len("error: "):].split(": ", 1)[0]
        assert any(key in named for key in CONDENSATE_KEYS), stderr
        return
    assert (code, stderr) == (0, "")
    assert outputs and all(math.isfinite(value) for value in outputs), outputs
