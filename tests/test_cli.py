"""End-to-end CLI coverage: verbs, config validation, output determinism."""

import io
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import phonodec
from phonodec.bec import thermal_occupation
from phonodec.cli import main as cli_main

# the source tree under test, so the child process imports the same package
SRC = str(Path(phonodec.__file__).resolve().parent.parent)


def run_python(*args: str, env=None, **kwargs) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *args]
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(cmd, capture_output=True, text=True, env=env, **kwargs)


def run_cli(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return run_python("-m", "phonodec", *args, **kwargs)


def read_header(path: Path) -> dict:
    header = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(" = ")
        header[key] = value
    return header


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    columns = lines[0].split(",")
    rows = np.array(
        [[float("nan") if v == "none" else float(v) for v in line.split(",")]
         for line in lines[1:]]
    )
    return columns, rows


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for verb in ("trajectory", "sweep", "rates", "verify", "plotscript"):
        assert verb in cp.stdout


def test_scenario_required():
    cp = run_cli("trajectory")
    assert cp.returncode == 2
    assert "scenario" in cp.stderr


def test_trajectory_fig1_header_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli("trajectory", "--preset", "fig1", "--out", str(out1)).returncode == 0
    assert run_cli("trajectory", "--preset", "fig1", "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()

    header = read_header(out1)
    assert header["regime"] == "quantum"
    assert float(header["gamma_per_s"]) == pytest.approx(0.73, rel=0.05)
    assert float(header["t_min_s"]) == pytest.approx(0.94, rel=0.05)
    assert header["t_tau0_s"] == "inf"
    assert float(header["three_body_half_life_s"]) == pytest.approx(2.4, rel=0.05)
    columns, rows = read_table(out1)
    assert columns == ["t_s", "mu", "tau", "r", "occupation"]
    assert rows.shape[0] == 500
    assert rows[0, 1] == pytest.approx(1.0)
    assert rows[0, 4] == pytest.approx(math.sinh(10.0) ** 2, rel=1e-10)


def test_trajectory_zero_rate_is_flat(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "species: rb87\n"
        "speed_of_sound_m_per_s: 3.4e-3\n"
        "temperature_K: 0.5e-9\n"
        "mode_frequency_rad_per_s: 1.0e4\n"
        "initial_squeezing: 2.0\n"
        "time_max_s: 5.0\n"
        "time_points: 20\n"
        "rate_source: explicit\n"
        "gamma_explicit_per_s: 0.0\n"
    )
    out = tmp_path / "flat.csv"
    cp = run_cli("trajectory", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    _, rows = read_table(out)
    for col in (1, 2, 3, 4):
        assert np.allclose(rows[:, col], rows[0, col], rtol=0, atol=1e-12)


def test_trajectory_thermal_initial_state_is_stationary(tmp_path):
    omega_q, temperature = 1.0e3, 100e-9
    n_th = thermal_occupation(omega_q, temperature)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "species: rb87\n"
        "speed_of_sound_m_per_s: 3.4e-3\n"
        f"temperature_K: {temperature!r}\n"
        f"mode_frequency_rad_per_s: {omega_q!r}\n"
        "initial_squeezing: 0.0\n"
        f"initial_thermal_occupation: {n_th!r}\n"
        "time_max_s: 2.0\n"
        "time_points: 15\n"
    )
    out = tmp_path / "th.csv"
    cp = run_cli("trajectory", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    _, rows = read_table(out)
    assert np.allclose(rows[:, 1], rows[0, 1], atol=1e-9)  # purity flat
    assert np.allclose(rows[:, 4], rows[0, 4], rtol=1e-9)  # occupation flat
    assert np.all(rows[:, 2] == 0.0)  # thermal states carry no nonclassicality


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "species: rb87\n"
        "speed_of_sound_m_per_s: 3.4e-3\n"
        "temperature_K: 1e-9\n"
        "mode_frequency_rad_per_s: 1e4\n"
        "speed_of_sondu_m_per_s: 3.0e-3\n"
    )
    cp = run_cli("trajectory", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert cp.returncode == 2
    assert "speed_of_sondu_m_per_s" in cp.stderr


def test_overconstrained_condensate_rejected(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "species: rb87\n"
        "speed_of_sound_m_per_s: 3.4e-3\n"
        "density_per_m3: 3.2e20\n"
        "temperature_K: 1e-9\n"
        "mode_frequency_rad_per_s: 1e4\n"
    )
    cp = run_cli("trajectory", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert cp.returncode == 2
    assert "exactly one" in cp.stderr


def test_custom_species_header_and_missing_constant(tmp_path):
    constants = (
        "species: custom\n"
        "mass_kg: 1.2e-25\n"
        "scattering_length_m: 4.0e-9\n"
    )
    scenario = (
        "speed_of_sound_m_per_s: 3.4e-3\n"
        "temperature_K: 0.5e-9\n"
        "mode_frequency_rad_per_s: 1.0e4\n"
    )
    cfg = tmp_path / "custom.yaml"
    cfg.write_text(constants + "three_body_l3_m6_per_s: 3.0e-42\n" + scenario)
    out = tmp_path / "custom.csv"
    cp = run_cli("trajectory", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    header = read_header(out)
    assert header["species"] == "custom"
    assert header["mass_kg"] == "1.2e-25"
    assert header["three_body_l3_m6_per_s"] == "3e-42"

    cfg.write_text(constants + scenario)
    cp = run_cli("trajectory", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 2
    assert cp.stderr == "error: species custom requires three_body_l3_m6_per_s\n"


def test_preset_overlay(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("time_points: 7\n")
    out = tmp_path / "short.csv"
    cp = run_cli("trajectory", "--preset", "fig1", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    _, rows = read_table(out)
    assert rows.shape[0] == 7


def test_sweep_output(tmp_path):
    out = tmp_path / "sweep.csv"
    cp = run_cli("sweep", "--preset", "fig2", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    header = read_header(out)
    trunc_keys = [k for k in header if k.startswith("truncation_omega_rad_per_s")]
    assert len(trunc_keys) == 3  # one per configured speed of sound
    columns, rows = read_table(out)
    assert columns[:3] == ["speed_of_sound_m_per_s", "omega_rad_per_s", "gamma_per_s"]
    # rows ordered by (c_s, omega)
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    assert np.array_equal(order, np.arange(len(rows)))
    # per speed: t_min monotone decreasing, truncation flag consistent
    for c_s in np.unique(rows[:, 0]):
        block = rows[rows[:, 0] == c_s]
        t_min = block[:, 3]
        assert np.all(np.diff(t_min) < 0)
        assert np.array_equal(block[:, 5], (t_min > block[:, 4]).astype(float))
    # paper speed of sound: log-log slope of t_min vs omega
    block = rows[np.isclose(rows[:, 0], 3.4e-3)]
    slope = np.polyfit(np.log(block[:, 1]), np.log(block[:, 3]), 1)[0]
    assert slope == pytest.approx(-5.0, abs=0.05)
    assert float(header["truncation_omega_rad_per_s[c_s=0.0034]"]) == pytest.approx(
        8.2e3, rel=0.05
    )


def test_sweep_requires_range(tmp_path):
    cp = run_cli("sweep", "--preset", "fig1", "--out", str(tmp_path / "x.csv"))
    assert cp.returncode == 2
    assert "sweep" in cp.stderr


def test_rates_breakdown():
    cp = run_cli("rates", "--preset", "fig1")
    assert cp.returncode == 0, cp.stderr
    assert "regime                   quantum" in cp.stdout
    gamma = float(cp.stdout.split("gamma_per_s")[1].splitlines()[0])
    assert gamma == pytest.approx(0.73, rel=0.05)
    assert "three_body_half_life_s" in cp.stdout


def test_verify_passes_and_tolerance_propagates():
    cp = run_cli("verify", "--tolerance", "0.5")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "tolerance scale 0.5" in cp.stdout
    assert cp.stdout.count("PASS") == 5
    assert "FAIL" not in cp.stdout


def test_plotscript_emits_csv_and_script(tmp_path):
    out = tmp_path / "traj.csv"
    cp = run_cli(
        "plotscript", "--preset", "fig1", "--kind", "trajectory", "--out", str(out)
    )
    assert cp.returncode == 0, cp.stderr
    gp = out.with_suffix(".gp")
    assert out.exists() and gp.exists()
    text = gp.read_text()
    assert "set datafile separator" in text and "traj.csv" in text


def test_outdir_environment_variable(tmp_path):
    env = {"PHONODEC_OUTDIR": str(tmp_path)}
    cp = run_cli(
        "trajectory", "--preset", "fig1", "--out", "envtest.csv",
        env={**os.environ, **env},
    )
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "envtest.csv").exists()


@pytest.mark.parametrize("document", ["- 1\n", "5\n"])
def test_config_that_is_not_a_mapping_is_rejected(tmp_path, document):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(document)
    for preset in (("--preset", "fig1"), ()):
        cp = run_cli("rates", *preset, "--config", str(cfg))
        assert cp.returncode == 2
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
        assert "mapping" in cp.stderr


def test_config_that_is_a_directory_is_rejected(tmp_path):
    cp = run_cli("rates", "--preset", "fig1", "--config", str(tmp_path))
    assert cp.returncode == 2
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "verb, overlay",
    [
        ("trajectory", "initial_squeezing: 400\n"),
        ("rates", "mode_frequency_rad_per_s: 1.0e+300\n"),
    ],
)
def test_arithmetic_overflow_is_an_error_not_a_traceback(tmp_path, verb, overlay):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(overlay)
    cp = run_cli(
        verb, "--preset", "fig1", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
    )
    assert cp.returncode == 2
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1


# 10**15 points is 7.11 PiB per float64 column: numpy refuses it at once.
@pytest.mark.parametrize(
    "verb, overlay",
    [
        ("trajectory", "time_points: 1000000000000000\n"),
        ("sweep", "sweep_points: 1000000000000000\n"),
    ],
)
def test_unallocatable_grid_is_an_error_not_a_traceback(tmp_path, verb, overlay):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(overlay)
    out = tmp_path / "x.csv"
    cp = run_cli(verb, "--preset", "fig2", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 2
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
    assert "allocate" in cp.stderr
    assert not out.exists()


def test_yaml_syntax_error_is_one_line(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("time_points: [1\n")
    cp = run_cli("rates", "--preset", "fig1", "--config", str(cfg))
    assert cp.returncode == 2
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
    assert f"{cfg}: line 2, column 1: expected ',' or ']'" in cp.stderr


def test_regime_warning_is_one_line(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "rate_source: asymptotic\n"
        "temperature_K: 5.0e-9\n"
        "mode_frequency_rad_per_s: 1.0e+3\n"
    )
    cp = run_cli("rates", "--preset", "fig1", "--config", str(cfg))
    assert cp.returncode == 0
    assert "thermal_low" in cp.stdout
    assert cp.stderr.startswith("warning: ") and cp.stderr.count("\n") == 1
    assert "damping.py" not in cp.stderr


def test_bare_import_loads_no_numpy_and_no_submodule():
    code = (
        "import sys, phonodec\n"
        "print(*sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('numpy', 'phonodec')))"
    )
    cp = run_python("-c", code)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.split() == ["phonodec"]


# Runs `rates` from a preset, then from a --config file, in one fresh
# interpreter, and prints the yaml modules loaded after each.
YAML_MODULES_AFTER = """
import sys
from phonodec import cli
for argv in (["rates", "--preset", "fig1"], ["rates", "--preset", "fig1", "--config", "c.yaml"]):
    assert cli.main(argv) == 0, argv
    loaded = [m for m in sorted(sys.modules) if m.split(".")[0] in ("yaml", "_yaml")]
    print("loaded:", *loaded)
"""


def test_preset_only_rates_does_not_import_yaml(tmp_path):
    (tmp_path / "c.yaml").write_text("initial_squeezing: 9.0\n")
    cp = run_python("-c", YAML_MODULES_AFTER, cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    preset_only, with_config = [
        line.split()[1:] for line in cp.stdout.splitlines() if line.startswith("loaded:")
    ]
    assert preset_only == []
    assert "yaml" in with_config


# Runs CLI verbs in one fresh interpreter, then prints the scipy modules loaded.
SCIPY_MODULES_AFTER = """
import sys
from phonodec import cli
for argv in {argvs!r}:
    assert cli.main(argv) == 0, argv
print(" ".join(m for m in sorted(sys.modules) if m.split(".")[0] == "scipy"))
"""


def scipy_modules_after(tmp_path, *argvs) -> set[str]:
    cp = run_python("-c", SCIPY_MODULES_AFTER.format(argvs=argvs), cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    return set(cp.stdout.splitlines()[-1].split())


def test_closed_form_verbs_do_not_import_scipy(tmp_path):
    loaded = scipy_modules_after(
        tmp_path,
        ["rates", "--preset", "fig1"],
        ["trajectory", "--preset", "fig1"],
        ["plotscript", "--preset", "fig1", "--kind", "trajectory"],
    )
    assert loaded == set()


def test_sweep_and_integral_rates_do_not_import_scipy(tmp_path):
    # the crossings use runs.brentq and the integrals damping.gauss_kronrod
    (tmp_path / "integral.yaml").write_text("rate_source: integral\nsweep_points: 8\n")
    loaded = scipy_modules_after(
        tmp_path,
        ["sweep", "--preset", "fig2"],
        ["sweep", "--preset", "fig2", "--config", "integral.yaml"],
        ["rates", "--preset", "fig1", "--config", "integral.yaml"],
    )
    assert loaded == set()


def test_verify_does_not_import_scipy(tmp_path):
    # the oracle and the Lyapunov check use the in-tree Padé exponential
    assert scipy_modules_after(tmp_path, ["verify"]) == set()


@pytest.mark.parametrize(
    "verb, overlay, keys",
    [
        ("trajectory", "initial_squeezing: 355\n", ["initial_squeezing"]),
        ("trajectory", "initial_squeezing: 356\n", ["initial_squeezing"]),
        ("sweep", "initial_squeezing: 356\n", ["initial_squeezing"]),
        ("trajectory", "initial_squeezing: 400\n", ["initial_squeezing"]),
        ("sweep", "initial_squeezing: 400\n", ["initial_squeezing"]),
        # det sigma = 1/(4 mu^2) overflows whatever the squeezing
        ("trajectory", "initial_squeezing: 10\ninitial_purity: 1.0e-300\n",
         ["initial_purity"]),
        ("sweep", "initial_squeezing: 10\ninitial_purity: 1.0e-300\n",
         ["initial_purity"]),
        # each key alone is fine; e^(2r)/(2 mu) overflows only for the pair
        ("trajectory", "initial_squeezing: 300\ninitial_purity: 1.0e-100\n",
         ["initial_squeezing", "initial_purity"]),
        # the occupation kappa^2 (Tr sigma + d.d) - 1/2 overflows
        ("trajectory", "initial_displacement: [1.0e+160, 0]\n",
         ["initial_displacement"]),
        ("trajectory", "initial_displacement: [1.897e+154, 0]\n",
         ["initial_displacement"]),
        ("rates", "initial_displacement: [1.4e+154, -1.4e+154]\n",
         ["initial_displacement"]),
    ],
    ids=["355", "356", "356-sweep", "400", "400-sweep", "purity", "purity-sweep",
         "pair", "displacement", "displacement-edge", "displacement-pair"],
)
def test_initial_covariance_overflow_is_rejected(tmp_path, verb, overlay, keys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(overlay)
    cp = run_cli(
        verb, "--preset", "fig2", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
    )
    assert cp.returncode == 2
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
    for key in keys:
        assert key in cp.stderr
    assert not (tmp_path / "x.csv").exists()


def test_largest_accepted_squeezing_runs_to_finite_output(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("initial_squeezing: 354\n")
    out = tmp_path / "x.csv"
    cp = run_cli("trajectory", "--preset", "fig1", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    assert float(read_header(out)["initial_squeezing"]) == 354.0
    _, rows = read_table(out)
    assert rows.shape == (500, 5)
    assert np.all(np.isfinite(rows))


def test_largest_accepted_displacement_runs_to_finite_output(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("initial_displacement: [1.896e+154, 0]\n")
    out = tmp_path / "x.csv"
    cp = run_cli("trajectory", "--preset", "fig1", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    header = read_header(out)
    assert header["initial_displacement"] == "[1.896e+154 0.0]"
    assert math.isfinite(float(header["initial_occupation"]))
    _, rows = read_table(out)
    assert rows.shape == (500, 5)
    assert np.all(np.isfinite(rows))


def test_metric_overflow_is_an_error_naming_the_squeezing(tmp_path):
    # cosh 2r0 times mu0/mu_inf leaves the float range inside the purity
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "initial_squeezing: 354.0\n"
        "temperature_K: 1.0e-7\n"
        "mode_frequency_rad_per_s: 1.0e+3\n"
        "rate_source: explicit\n"
        "gamma_explicit_per_s: 1.0\n"
    )
    out = tmp_path / "x.csv"
    cp = run_cli("trajectory", "--preset", "fig1", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 2
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
    assert "initial_squeezing" in cp.stderr
    assert not out.exists()


def run_cli_in_process(*argv: str) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli_main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def decades(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda exponent: 10.0**exponent)


# Overlays of the fig1 preset over the closed-form rate sources.
OVERLAYS = st.fixed_dictionaries({
    "rate_source": st.sampled_from(["explicit", "asymptotic"]),
    "gamma_explicit_per_s": st.one_of(st.just(0.0), decades(-3.0, 3.0)),
    "initial_squeezing": st.floats(0.0, 354.0),
    "initial_purity": st.floats(0.0, 1.0, exclude_min=True),
    "temperature_K": st.floats(0.0, 1e-5),
    "mode_frequency_rad_per_s": decades(0.0, 6.0),
    "speed_of_sound_m_per_s": decades(-4.0, -1.0),
})


@settings(max_examples=60, deadline=None)
@given(OVERLAYS)
# the purity's cosh 2r0 term overflowed into rows of mu = 0.0 and r = 0.0
@example({
    "rate_source": "explicit", "gamma_explicit_per_s": 1.0, "initial_squeezing": 354.0,
    "initial_purity": 1.0, "temperature_K": 1e-7, "mode_frequency_rad_per_s": 1e3,
    "speed_of_sound_m_per_s": 3.4e-3,
})
# a vacuum in a zero-temperature bath read mu = 1.0000000000000002 and r = 1e-8
@example({
    "rate_source": "asymptotic", "gamma_explicit_per_s": 0.0, "initial_squeezing": 0.0,
    "initial_purity": 1.0, "temperature_K": 0.0, "mode_frequency_rad_per_s": 1e4,
    "speed_of_sound_m_per_s": 3.4e-3,
})
def test_a_scenario_gives_metrics_in_range_or_one_error_line(overlay):
    if overlay["rate_source"] != "explicit":
        del overlay["gamma_explicit_per_s"]
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.yaml", Path(tmp) / "x.csv"
        cfg.write_text(
            "time_points: 50\n" + "".join(f"{k}: {v!r}\n" for k, v in overlay.items())
        )
        for verb in ("trajectory", "rates"):
            code, stdout, stderr = run_cli_in_process(
                verb, "--preset", "fig1", "--config", str(cfg), "--out", str(out)
            )
            lines = stderr.splitlines()
            assert all(line.startswith(("warning: ", "error: ")) for line in lines)
            if code == 2:
                assert lines[-1].startswith("error: ")
                assert not any(line.startswith("error: ") for line in lines[:-1])
                continue
            assert code == 0 and not any(line.startswith("error: ") for line in lines)
            if verb == "rates":
                assert "nan" not in stdout
                continue
            _, rows = read_table(out)
            assert rows.shape == (50, 5) and np.all(np.isfinite(rows))
            _, mu, tau, r, occupation = rows.T
            assert np.all((mu > 0.0) & (mu <= 1.0))
            assert np.all(tau >= 0.0) and np.all(r >= 0.0) and np.all(occupation >= 0.0)
