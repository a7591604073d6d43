"""End-to-end CLI coverage: verbs, config validation, output determinism."""

import dataclasses
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
from phonodec import verify
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


def test_sweep_far_from_the_crossing_warns_of_nothing(tmp_path):
    # t_min - t_half exceeds 1e154 at both ends of the first intervals, so
    # the crossing test must compare signs rather than multiply
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("temperature_K: 0\nsweep_omega_min_rad_per_s: 1.0e-100\n")
    out = tmp_path / "sweep.csv"
    cp = run_cli("sweep", "--preset", "fig2", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    crossing = read_header(out)["truncation_omega_rad_per_s[c_s=0.0034]"]
    assert float(crossing) == pytest.approx(8.2e3, rel=0.05)


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


def test_the_quantum_regime_at_its_threshold_does_not_warn(tmp_path):
    # k_B T < 0.3 hbar w_q holds here, while k_B T / (hbar w_q) rounds to 0.3
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "mode_frequency_rad_per_s: 333.75630981492776\n"
        "temperature_K: 7.647924955801437e-10\n"
    )
    cp = run_cli("rates", "--preset", "fig1", "--config", str(cfg))
    assert (cp.returncode, cp.stderr) == (0, "")
    assert "regime                   quantum\n" in cp.stdout


def test_verify_passes_and_tolerance_propagates():
    cp = run_cli("verify", "--tolerance", "0.5")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "tolerance scale 0.5" in cp.stdout
    assert cp.stdout.count("PASS") == 5
    assert "FAIL" not in cp.stdout


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-1", "0", "many"])
def test_verify_tolerance_must_be_positive_and_finite(tolerance, capsys):
    # inf passed every check and nan or -1 failed every check, exiting 0 or 1
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["verify", "--tolerance", tolerance])
    assert excinfo.value.code == 2
    assert "--tolerance: expected a positive finite number" in capsys.readouterr().err


def test_verify_holds_the_oracle_to_the_metrics_the_trajectory_writes(monkeypatch):
    # a purity off by 1e-2 in metric_trajectory, which fills the CSV's mu
    # column, must fail the number-basis oracle (tolerance 1e-3)
    real = verify.metric_trajectory

    def shifted(*args):
        metrics = real(*args)
        return dataclasses.replace(metrics, mu=metrics.mu + 1e-2)

    monkeypatch.setattr(verify, "metric_trajectory", shifted)
    code, stdout, stderr = run_cli_in_process("verify")
    assert (code, stderr) == (1, "")
    assert "FAIL fock_oracle" in stdout
    assert stdout.count("PASS") == 4


def test_verify_holds_the_closed_form_to_the_block_exponential(monkeypatch):
    # a covariance 1e-6 too large in evolve_closed_form must fail the
    # moment-equation check (tolerance 1e-8); the oracle's 1e-3 still holds
    real = verify.evolve_closed_form

    def scaled(*args):
        state = real(*args)
        return dataclasses.replace(state, sigma=state.sigma * (1.0 + 1e-6))

    monkeypatch.setattr(verify, "evolve_closed_form", scaled)
    code, stdout, stderr = run_cli_in_process("verify")
    assert (code, stderr) == (1, "")
    assert "FAIL lyapunov_closed_vs_numeric" in stdout
    assert stdout.count("PASS") == 4


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


# Runs `rates` from a preset, then from a JSON and a YAML --config file, in
# one fresh interpreter, and prints the parser modules loaded after each.
PARSER_MODULES_AFTER = """
import sys
from phonodec import cli
for config in ([], ["--config", "c.json"], ["--config", "c.yaml"]):
    assert cli.main(["rates", "--preset", "fig1", *config]) == 0, config
    loaded = [m for m in sorted(sys.modules) if m.split(".")[0] in ("yaml", "_yaml", "json")]
    print("loaded:", *loaded)
"""


def test_preset_only_rates_does_not_import_yaml(tmp_path):
    (tmp_path / "c.json").write_text('{"initial_squeezing": 9.0}\n')
    (tmp_path / "c.yaml").write_text("initial_squeezing: 9.0\n")
    cp = run_python("-c", PARSER_MODULES_AFTER, cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    preset_only, with_json, with_yaml = [
        line.split()[1:] for line in cp.stdout.splitlines() if line.startswith("loaded:")
    ]
    assert preset_only == []
    assert "json" in with_json and "yaml" not in with_json
    assert "yaml" in with_yaml


def test_a_scenario_file_that_is_not_utf8_is_named(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(b"\xfftime_points: 5\n")
    code, _, stderr = run_cli_in_process("rates", "--preset", "fig1", "--config", str(cfg))
    assert code == 2
    assert stderr.startswith(f"error: {cfg}: not UTF-8 text (") and stderr.count("\n") == 1


def test_a_tab_indented_json_scenario_runs(tmp_path):
    # PyYAML rejects the tabs; the standard library's json reads the file
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{\n\t"rate_source": "asymptotic",\n\t"initial_squeezing": 9.0\n}\n')
    out = tmp_path / "x.csv"
    code, _, stderr = run_cli_in_process(
        "trajectory", "--preset", "fig1", "--config", str(cfg), "--out", str(out)
    )
    assert (code, stderr) == (0, "")
    header = read_header(out)
    assert (header["rate_source"], header["initial_squeezing"]) == ("asymptotic", "9.0")


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


# Imports the CLI, then runs verbs, in one fresh interpreter, and prints after
# each step whether the float-table renderer is loaded.
RENDERER_LOADED_AFTER = """
import sys
from phonodec import cli
print("renderer loaded:", "phonodec._repr" in sys.modules)
for argv in {argvs!r}:
    assert cli.main(argv) == 0, argv
    print("renderer loaded:", "phonodec._repr" in sys.modules)
"""


def test_only_the_trajectory_loads_the_float_table_renderer(tmp_path):
    # every verb pays its import otherwise, in setup time
    argvs = [
        ["rates", "--preset", "fig1"],
        ["sweep", "--preset", "fig2"],
        ["verify"],
        ["trajectory", "--preset", "fig1"],
    ]
    cp = run_python("-c", RENDERER_LOADED_AFTER.format(argvs=argvs), cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    loaded = [
        line.split()[-1] for line in cp.stdout.splitlines()
        if line.startswith("renderer loaded:")
    ]
    assert loaded == ["False", "False", "False", "False", "True"]


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
        # unsqueezed, every entry 1/(2 mu) is finite and only det sigma overflows
        ("trajectory", "initial_squeezing: 0\ninitial_purity: 1.0e-160\n",
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
         "purity-det-only", "pair", "displacement", "displacement-edge", "displacement-pair"],
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


# k_B T underflows to 0 below 1.7892514529081849e-301 K, and every rate
# divides by it
@pytest.mark.parametrize("verb", ["rates", "trajectory", "sweep"])
@pytest.mark.parametrize(
    "temperature, accepted",
    [("5.0e-324", False), ("1.7892514529081847e-301", False),
     ("1.7892514529081849e-301", True)],
)
def test_temperature_whose_k_b_t_underflows_is_rejected(
    tmp_path, verb, temperature, accepted
):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"temperature_K: {temperature}\n")
    out = tmp_path / "x.csv"
    code, _, stderr = run_cli_in_process(
        verb, "--preset", "fig2", "--config", str(cfg), "--out", str(out)
    )
    if accepted:
        assert code == 0 and stderr == ""
        return
    assert code == 2
    assert stderr.startswith("error: temperature_K: ") and stderr.count("\n") == 1
    assert not out.exists()


# omega**2 is subnormal below 1.4916681462400413e-154 rad/s, where the
# collision integrals lose the wavenumber; the closed forms divide by an
# hbar*omega that underflows below about 7e-290 rad/s
FREQUENCY_KEYS = [
    ("rates", "fig1", "mode_frequency_rad_per_s"),
    ("trajectory", "fig1", "mode_frequency_rad_per_s"),
    ("sweep", "fig2", "sweep_omega_min_rad_per_s"),
]


def run_at_frequency(tmp_path, verb, preset, key, omega, temperature):
    sweep = "sweep_omega_max_rad_per_s: 1.0e-150\n" if verb == "sweep" else ""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        f"temperature_K: {temperature}\n{key}: {omega}\n{sweep}"
        "sweep_points: 5\ntime_points: 5\n"
    )
    out = tmp_path / "x.csv"
    code, _, stderr = run_cli_in_process(
        verb, "--preset", preset, "--config", str(cfg), "--out", str(out)
    )
    return code, stderr, out


@pytest.mark.parametrize("verb, preset, key", FREQUENCY_KEYS)
@pytest.mark.parametrize("temperature", ["0.0", "0.5e-9"])
@pytest.mark.parametrize("omega", ["1.0e-300", "3.0e-290", "1.4916681462400412e-154"])
def test_frequency_whose_square_underflows_is_rejected(
    tmp_path, verb, preset, key, temperature, omega
):
    code, stderr, out = run_at_frequency(tmp_path, verb, preset, key, omega, temperature)
    assert code == 2
    assert stderr.startswith(f"error: {key}: ") and stderr.count("\n") == 1
    assert not out.exists()


# at fig1's temperature the trajectory's thermal occupation at the floor is
# about 4e155, and its metrics end in the error that names mu_inf
@pytest.mark.parametrize(
    "verb, preset, key, temperature",
    [(*keys, "0.0") for keys in FREQUENCY_KEYS]
    + [(*keys, "0.5e-9") for keys in FREQUENCY_KEYS if keys[0] != "trajectory"],
)
def test_frequency_at_the_floor_runs(tmp_path, verb, preset, key, temperature):
    code, stderr, _ = run_at_frequency(
        tmp_path, verb, preset, key, "1.4916681462400413e-154", temperature
    )
    assert code == 0 and stderr == ""


# At fig1's condensate the quantum closed form's w**5 (auto, asymptotic)
# overflows above 4.476546622757235e61 rad/s, and the collision integrals'
# 2 w**2 (integral) above 9.480751908109176e153; explicit takes no formula.
TOP_FREQUENCIES = {
    "auto": 4.476546622757235e61,
    "asymptotic": 4.476546622757235e61,
    "integral": 9.480751908109176e153,
}
TOP_KEYS = [
    ("rates", "fig1", "mode_frequency_rad_per_s"),
    ("trajectory", "fig1", "mode_frequency_rad_per_s"),
    ("sweep", "fig2", "sweep_omega_max_rad_per_s"),
]


def run_at_top(tmp_path, verb, preset, key, source, omega, extra=""):
    sweep = "sweep_omega_min_rad_per_s: 1.0e+61\n" if verb == "sweep" else ""
    explicit = "gamma_explicit_per_s: 0.5\n" if source == "explicit" else ""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        f"rate_source: {source}\n{key}: {omega!r}\n{sweep}{explicit}{extra}"
        "sweep_points: 5\ntime_points: 5\n"
    )
    out = tmp_path / "x.csv"
    code, _, stderr = run_cli_in_process(
        verb, "--preset", preset, "--config", str(cfg), "--out", str(out)
    )
    return code, stderr, out


@pytest.mark.parametrize("verb, preset, key", TOP_KEYS)
@pytest.mark.parametrize("source", sorted(TOP_FREQUENCIES))
def test_a_frequency_above_its_rate_formulas_range_is_rejected(
    tmp_path, verb, preset, key, source
):
    omega = math.nextafter(TOP_FREQUENCIES[source], math.inf)
    code, stderr, out = run_at_top(tmp_path, verb, preset, key, source, omega)
    assert code == 2
    assert stderr.startswith(f"error: {key}: ") and stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("verb, preset, key", TOP_KEYS)
@pytest.mark.parametrize(
    "source, omega", [*TOP_FREQUENCIES.items(), ("explicit", 1.0e300)]
)
def test_a_frequency_at_the_top_of_its_rate_formulas_range_runs(
    tmp_path, verb, preset, key, source, omega
):
    code, stderr, _ = run_at_top(tmp_path, verb, preset, key, source, omega)
    assert (code, stderr) == (0, "")


def test_a_quantum_rate_that_overflows_in_its_division_is_rejected(tmp_path):
    # at c_s = 1 um/s, m n c_s^5 is small enough that the closed form
    # overflows to inf below the w**5 limit: `rates` printed gamma_per_s inf
    slow = "speed_of_sound_m_per_s: 1.0e-6\ntemperature_K: 0.0\n"
    key = "mode_frequency_rad_per_s"
    inside, above = 5.4083788817159085e60, 5.408378881715909e60
    code, stderr, _ = run_at_top(tmp_path, "rates", "fig1", key, "asymptotic", inside, slow)
    assert (code, stderr) == (0, "")
    code, stderr, _ = run_at_top(tmp_path, "rates", "fig1", key, "asymptotic", above, slow)
    assert code == 2
    assert stderr.startswith(f"error: {key}: ") and stderr.count("\n") == 1


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


# far above mu / hbar, the free + mu - hbar w of bec.bogoliubov_uv's v_k can
# round below 0
@pytest.mark.parametrize("omega", ["1.0e+12", "1.0e+14", "1.0e+16", "1.0e+19"])
def test_integral_rates_at_a_large_frequency_are_finite(tmp_path, omega):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"rate_source: integral\nmode_frequency_rad_per_s: {omega}\n")
    code, stdout, stderr = run_cli_in_process(
        "rates", "--preset", "fig1", "--config", str(cfg)
    )
    assert code == 0, stderr
    report = dict(line.split(maxsplit=1) for line in stdout.splitlines())
    assert math.isfinite(float(report["gamma_per_s"]))


def assert_sweep_in_range(path: Path) -> None:
    """The fig2 sweep's 20 frequencies per speed: finite rates and times, a
    ``none`` t_min only where the purity has no minimum, consistent flags."""
    speeds = (1.7e-3, 3.4e-3, 6.8e-3)
    header = read_header(path)
    for c_s in speeds:
        crossing = header[f"truncation_omega_rad_per_s[c_s={c_s!r}]"]
        assert crossing == "none" or 1e3 <= float(crossing) <= 1e4
    _, rows = read_table(path)
    assert rows.shape == (60, 6)
    c_s, omega, gamma, t_min, t_half, truncated = rows.T
    assert set(c_s) == set(speeds)
    assert np.all((omega >= 1e3 * (1 - 1e-12)) & (omega <= 1e4 * (1 + 1e-12)))
    assert np.all(np.isfinite(gamma) & (gamma >= 0.0))
    assert np.all(np.isfinite(t_half) & (t_half > 0.0))
    assert np.all(np.isnan(t_min) | (np.isfinite(t_min) & (t_min > 0.0)))
    assert np.array_equal(truncated, (t_min > t_half).astype(float))


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
            "time_points: 50\nsweep_points: 20\n"
            + "".join(f"{k}: {v!r}\n" for k, v in overlay.items())
        )
        for verb, preset in (("trajectory", "fig1"), ("rates", "fig1"), ("sweep", "fig2")):
            code, stdout, stderr = run_cli_in_process(
                verb, "--preset", preset, "--config", str(cfg), "--out", str(out)
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
            if verb == "sweep":
                assert_sweep_in_range(out)
                continue
            _, rows = read_table(out)
            assert rows.shape == (50, 5) and np.all(np.isfinite(rows))
            _, mu, tau, r, occupation = rows.T
            assert np.all((mu > 0.0) & (mu <= 1.0))
            assert np.all(tau >= 0.0) and np.all(r >= 0.0) and np.all(occupation >= 0.0)

