"""End-to-end CLI coverage: verbs, config validation, output determinism."""

import gc
import importlib.util
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import phonodec
from phonodec import _repr, damping, verify
from phonodec.bec import thermal_occupation
from phonodec.cli import main as cli_main
from phonodec.constants import HBAR, RB87

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
    # tools/metric_reference.py's value to 20 digits
    assert float(header["t_tau0_s"]) == pytest.approx(205.59858500146211703, rel=1e-13)
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

    def shifted(*args, **kwargs):
        metrics = real(*args, **kwargs)
        return metrics._replace(mu=metrics.mu + 1e-2)

    monkeypatch.setattr(verify, "metric_trajectory", shifted)
    code, stdout, stderr = run_cli_in_process("verify")
    assert (code, stderr) == (1, "")
    assert "FAIL fock_oracle" in stdout
    assert stdout.count("PASS") == 4


def test_verify_holds_the_closed_form_to_the_block_exponential(monkeypatch):
    # a covariance 1e-6 too large in closed_form_moments must fail the
    # moment-equation check (tolerance 1e-8); the oracle's 1e-3 still holds
    real = verify.closed_form_moments

    def scaled(*args):
        d, sigma = real(*args)
        return d, sigma * (1.0 + 1e-6)

    monkeypatch.setattr(verify, "closed_form_moments", scaled)
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


def test_regime_warning_is_in_flags_and_passes_the_domain_scan_filter(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "rate_source: asymptotic\n"
        "temperature_K: 5.0e-9\n"
        "mode_frequency_rad_per_s: 1.0e+3\n"
    )
    rates = run_cli("rates", "--preset", "fig1", "--config", str(cfg))
    assert rates.returncode == 0
    text = rates.stderr.removeprefix("warning: ").rstrip("\n")
    assert text.startswith("thermal_low closed form outside its validity region")
    assert f"\nflags                    {text}\n" in rates.stdout
    out = tmp_path / "t.csv"
    trajectory = run_cli("trajectory", "--preset", "fig1", "--config", str(cfg), "--out", str(out))
    assert (trajectory.returncode, trajectory.stderr) == (0, rates.stderr)
    assert read_header(out)["flags"] == text
    # the tool's filter for the warnings that asymptotic prints by design
    tool = Path(__file__).resolve().parents[1] / "tools" / "domain_scan.py"
    spec = importlib.util.spec_from_file_location("domain_scan", tool)
    domain_scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(domain_scan)
    assert domain_scan.regime_warnings_only(rates.stderr)


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
# each step whether a module is loaded.
LOADED_AFTER = """
import sys
from phonodec import cli
print("module loaded:", {module!r} in sys.modules)
for argv in {argvs!r}:
    assert cli.main(argv) == 0, argv
    print("module loaded:", {module!r} in sys.modules)
"""


def loaded_after(tmp_path, module: str, *argvs) -> list[str]:
    script = LOADED_AFTER.format(module=module, argvs=argvs)
    cp = run_python("-c", script, cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    return [
        line.split()[-1] for line in cp.stdout.splitlines()
        if line.startswith("module loaded:")
    ]


def test_only_the_trajectory_loads_the_float_table_renderer(tmp_path):
    # every verb pays its import otherwise, in setup time; fig1's 500 points
    # are 2 500 cells, and 3 277 points the first above runs.SMALL_TABLE_CELLS
    (tmp_path / "large.yaml").write_text("time_points: 3277\n")
    loaded = loaded_after(
        tmp_path,
        "phonodec._repr",
        ["rates", "--preset", "fig1"],
        ["sweep", "--preset", "fig2"],
        ["verify"],
        ["trajectory", "--preset", "fig1"],
        ["plotscript", "--preset", "fig1", "--kind", "trajectory"],
        ["trajectory", "--preset", "fig1", "--config", "large.yaml"],
    )
    assert loaded == ["False"] * 6 + ["True"]


@pytest.mark.parametrize("module", ["phonodec.fock", "phonodec.lyapunov", "phonodec._expm"])
def test_only_verify_loads_the_self_check_modules(tmp_path, module):
    # phonodec.cli holds phonodec.verify as a lazy module, whose body (and
    # with it these three) runs on the first use of a verify name
    loaded = loaded_after(
        tmp_path,
        module,
        ["rates", "--preset", "fig1"],
        ["trajectory", "--preset", "fig1"],
        ["sweep", "--preset", "fig2"],
        ["plotscript", "--preset", "fig1", "--kind", "trajectory"],
        ["plotscript", "--preset", "fig2", "--kind", "sweep"],
        ["verify"],
    )
    assert loaded == ["False"] * 6 + ["True"]


# Imports phonodec.verify before or after phonodec.cli, then makes its suite
# fail: the CLI must run the module the import gave, bound on the package.
ONE_VERIFY_MODULE = """
import sys
order = sys.argv[1]
if order == "verify_first":
    import phonodec.verify
    verify = phonodec.verify
import phonodec.cli
if order == "cli_first":
    import phonodec.verify
    verify = phonodec.verify
assert verify is phonodec.verify is sys.modules["phonodec.verify"] is phonodec.cli.verify
verify.ALL_CHECKS = (lambda scale: verify.CheckResult("broken", 1.0, 0.0),)
print("exit", phonodec.cli.main(["verify"]))
"""


@pytest.mark.parametrize("order", ["verify_first", "cli_first"])
def test_the_cli_runs_the_verify_module_every_importer_sees(tmp_path, order):
    cp = run_python("-c", ONE_VERIFY_MODULE, order, cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[-1] == "exit 1"
    assert "FAIL broken" in cp.stdout


# Imports the CLI as perfbench/tracer.py does, installs the tracer, and
# prints what it could not find and whether it wrapped every verify check.
TRACER_INSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
import phonodec.cli
import tracer
t = tracer.Tracer("job")
tracer.install(t)
checks = sys.modules["phonodec.verify"].ALL_CHECKS
print("missing", t.missing)
print("wrapped", len(checks), all(hasattr(check, "__wrapped__") for check in checks))
"""


def test_the_benchmark_tracer_wraps_the_lazy_verify_module(tmp_path):
    perfbench = str(Path(SRC).parent / "perfbench")
    cp = run_python("-c", TRACER_INSTALL, perfbench, cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines() == ["missing []", "wrapped 5 True"]


def test_no_verb_loads_numpy_typing(tmp_path):
    # the annotations are strings; NDArray is imported for type checkers only
    loaded = loaded_after(
        tmp_path,
        "numpy.typing",
        ["rates", "--preset", "fig1"],
        ["trajectory", "--preset", "fig1"],
        ["sweep", "--preset", "fig2"],
        ["verify"],
    )
    assert loaded == ["False"] * 5


# Each case: the argv, with {out} for the output directory, and its exit code.
EXIT_PATH_CASES = {
    "rates": (["rates", "--preset", "fig1"], 0),
    "trajectory": (["trajectory", "--preset", "fig1", "--out", "{out}/t.csv"], 0),
    "sweep": (["sweep", "--preset", "fig2", "--out", "{out}/s.csv"], 0),
    "plotscript_trajectory": (
        ["plotscript", "--preset", "fig1", "--kind", "trajectory", "--out", "{out}/p.csv"], 0
    ),
    "plotscript_sweep": (
        ["plotscript", "--preset", "fig2", "--kind", "sweep", "--out", "{out}/p.csv"], 0
    ),
    "verify": (["verify"], 0),
    "verify_fails": (["verify", "--tolerance", "1e-300"], 1),
    "regime_warning": (["rates", "--preset", "fig1", "--config", "{cfg}/outside.json"], 0),
    "config_error": (["rates", "--preset", "fig1", "--config", "{cfg}/unknown.json"], 2),
}


@pytest.mark.parametrize("case", sorted(EXIT_PATH_CASES))
def test_python_m_phonodec_ends_as_cli_main_returns(tmp_path, case):
    # the process entry point adds only a gc.freeze() after main returns
    template, expected_code = EXIT_PATH_CASES[case]
    (tmp_path / "outside.json").write_text(
        '{"rate_source": "asymptotic", "temperature_K": 5.0e-9,'
        ' "mode_frequency_rad_per_s": 1.0e+3}\n'
    )
    (tmp_path / "unknown.json").write_text('{"no_such_key": 1}\n')
    runs = {}
    for side in ("process", "main"):
        out = tmp_path / side
        out.mkdir()
        argv = [arg.format(out=out, cfg=tmp_path) for arg in template]
        if side == "process":
            # block-buffered stdout, as in a pipe, so that a lost flush shows
            env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
            cp = run_cli(*argv, env=env)
            code, stdout, stderr = cp.returncode, cp.stdout, cp.stderr
        else:
            code, stdout, stderr = run_cli_in_process(*argv)
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        runs[side] = (code, stdout.replace(str(out), "{out}"), stderr, files)
    assert runs["process"] == runs["main"]
    code, stdout, stderr, files = runs["main"]
    assert code == expected_code
    if case == "regime_warning":
        assert stderr.startswith("warning: ") and stderr.count("\n") == 1
    elif case == "config_error":
        assert (stdout, files) == ("", {})
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
    else:
        assert stderr == ""
        assert bool(files) == ("--out" in template)


# Runs `rates` through one entry point in a fresh interpreter, then prints the
# exit code and the number of objects in the collector's permanent generation.
FREEZE_COUNT_AFTER = """
import gc, importlib, runpy, sys
entry = sys.argv[1]
sys.argv = ["phonodec", "rates", "--preset", "fig1"]
if entry == "runpy":
    try:
        runpy.run_module("phonodec", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    module, _, name = entry.partition(":")
    code = getattr(importlib.import_module(module), name)()
print("exit", code, "frozen", gc.get_freeze_count())
"""


def console_script() -> str:
    text = (Path(SRC).parent / "pyproject.toml").read_text()
    match = re.search(r'^phonodec = "([\w.:]+)"$', text, re.MULTILINE)
    assert match, "pyproject.toml has no phonodec console script"
    return match.group(1)


@pytest.mark.parametrize("entry", ["runpy", "script"])
def test_a_cli_process_freezes_the_collector_after_main(tmp_path, entry):
    entry = console_script() if entry == "script" else entry
    cp = run_python("-c", FREEZE_COUNT_AFTER, entry, cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    _, code, _, frozen = cp.stdout.splitlines()[-1].split()
    assert code == "0"
    assert int(frozen) > 0


def test_cli_main_does_not_freeze_the_collector():
    # tests and library callers run main in a process that goes on
    assert gc.get_freeze_count() == 0
    assert run_cli_in_process("rates", "--preset", "fig1")[0] == 0
    assert gc.get_freeze_count() == 0


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
# about 4e155; the purity squares rho c = mu0 (1 + 2 n_th) c, which is 0 at
# t = 0, where rho alone squared would overflow
@pytest.mark.parametrize(
    "verb, preset, key, temperature",
    [(*keys, temperature) for temperature in ("0.0", "0.5e-9") for keys in FREQUENCY_KEYS],
)
def test_frequency_at_the_floor_runs(tmp_path, verb, preset, key, temperature):
    code, stderr, out = run_at_frequency(
        tmp_path, verb, preset, key, "1.4916681462400413e-154", temperature
    )
    assert code == 0 and stderr == ""
    if verb == "trajectory":
        assert np.isfinite(read_table(out)[1]).all()


# At fig1's condensate the quantum closed form's w**5 (auto, asymptotic)
# overflows above 4.476546622757235e61 rad/s; explicit takes no formula.  The
# collision integrals (integral) need hbar w / mu finite, which every float
# frequency meets at fig1's speed of sound; at c_s = 1 um/s and T = 0 they
# run up to 2.4601078767933298e305 rad/s.
TOP_FREQUENCIES = {
    "auto": 4.476546622757235e61,
    "asymptotic": 4.476546622757235e61,
    "integral": 2.4601078767933298e305,
}
TOP_CONDENSATE = {
    "integral": "speed_of_sound_m_per_s: 1.0e-6\n"
    "sweep_speeds_of_sound_m_per_s: [1.0e-6]\ntemperature_K: 0.0\n",
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
    extra = TOP_CONDENSATE.get(source, "")
    code, stderr, out = run_at_top(tmp_path, verb, preset, key, source, omega, extra)
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
    extra = TOP_CONDENSATE.get(source, "")
    code, stderr, _ = run_at_top(tmp_path, verb, preset, key, source, omega, extra)
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


# An explicit rate's split gamma (1 + 2 n_th) grows as the frequency falls: at
# fig1's temperature n_th = 6.5e151 at 1e-150 rad/s, where the split of 1e157
# 1/s leaves the float range.  The rule is a property of the config, so every
# verb rejects it at the mode frequency and at the bottom of the sweep.
EXPLICIT_LOW_KEYS = [
    ("rates", "fig1", "mode_frequency_rad_per_s"),
    ("trajectory", "fig1", "mode_frequency_rad_per_s"),
    ("sweep", "fig2", "mode_frequency_rad_per_s"),
    ("rates", "fig2", "sweep_omega_min_rad_per_s"),
    ("trajectory", "fig2", "sweep_omega_min_rad_per_s"),
    ("sweep", "fig2", "sweep_omega_min_rad_per_s"),
]


@pytest.mark.parametrize("verb, preset, key", EXPLICIT_LOW_KEYS)
def test_an_explicit_rate_whose_split_overflows_at_a_low_frequency_is_rejected(
    tmp_path, verb, preset, key
):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        f"rate_source: explicit\ngamma_explicit_per_s: 1.0e+157\n{key}: 1.0e-150\n"
    )
    out = tmp_path / "x.csv"
    code, _, stderr = run_cli_in_process(
        verb, "--preset", preset, "--config", str(cfg), "--out", str(out)
    )
    assert code == 2
    assert stderr.startswith(f"error: {key}, gamma_explicit_per_s and temperature_K: ")
    assert stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("verb", ["rates", "trajectory", "sweep"])
def test_domain_scan_rejects_an_explicit_rate_from_the_decade_its_split_overflows(verb):
    tool = Path(__file__).resolve().parents[1] / "tools" / "domain_scan.py"
    spec = importlib.util.spec_from_file_location("domain_scan", tool)
    domain_scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(domain_scan)
    assert domain_scan.RATE_SOURCES is damping.RATE_SOURCES
    base = "time_points: 5\nsweep_points: 5\nmode_frequency_rad_per_s: 1.0e-150\n"
    scanned = domain_scan.scan(
        "gamma_explicit_per_s", verb, "explicit", range(155, 160), base, False
    )
    assert scanned == ("1e157", "none")


# the crossing search's iteration cap grows with its bracket, so a sweep of
# two points that span 37 or 57 decades finds each crossing
@pytest.mark.parametrize("source", ["auto", "asymptotic", "integral"])
@pytest.mark.parametrize("omega_max", ["1.0e+40", "1.0e+60"])
def test_a_sweep_over_a_wide_bracket_finds_its_crossings(tmp_path, source, omega_max):
    def crossings(overrides: str) -> list[float]:
        cfg, out = tmp_path / "cfg.json", tmp_path / "sweep.csv"
        cfg.write_text(f'{{"rate_source": "{source}", {overrides}}}')
        code, _, stderr = run_cli_in_process(
            "sweep", "--preset", "fig2", "--config", str(cfg), "--out", str(out)
        )
        assert code == 0, stderr
        header = read_header(out)
        return [float(header[k]) for k in header if k.startswith("truncation_omega")]

    wide = crossings(f'"sweep_points": 2, "sweep_omega_max_rad_per_s": {omega_max}')
    fine = crossings('"sweep_points": 50, "sweep_omega_max_rad_per_s": 1.0e+5')
    assert len(wide) == 3
    assert wide == pytest.approx(fine, rel=1e-11)


@pytest.mark.parametrize("source", damping.RATE_SOURCES)
def test_domain_scan_runs_a_two_point_sweep_over_30_to_60_decades(source):
    tool = Path(__file__).resolve().parents[1] / "tools" / "domain_scan.py"
    spec = importlib.util.spec_from_file_location("domain_scan", tool)
    domain_scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(domain_scan)
    base = "time_points: 5\nsweep_points: 2\n"
    scanned = domain_scan.scan(
        "sweep_omega_max_rad_per_s", "sweep", source, range(30, 70, 10), base, False
    )
    assert scanned == ("none", "none")


# (key, verb, rate source, decades, the scan's (rejected from, first failure)):
# under auto and under an explicit rate of 0.5/s the trajectory runs down to
# the frequency floor and 1e-154 rad/s is below it; the integral does not
# converge at 1e-1 rad/s or 1e-18 K; and each error line names its keys
NAMED_SCANS = [
    ("mode_frequency_rad_per_s", "trajectory", "auto", range(-152, -155, -1), ("1e-154", "none")),
    ("mode_frequency_rad_per_s", "trajectory", "explicit", range(-152, -155, -1), ("1e-154", "none")),
    ("mode_frequency_rad_per_s", "rates", "integral", range(0, -2, -1), ("1e-1", "none")),
    ("temperature_K", "rates", "integral", range(-17, -19, -1), ("1e-18", "none")),
]


@pytest.mark.parametrize("key, verb, source, exponents, expected", NAMED_SCANS)
def test_domain_scan_finds_a_named_error_where_the_metrics_or_the_integral_fail(
    key, verb, source, exponents, expected
):
    tool = Path(__file__).resolve().parents[1] / "tools" / "domain_scan.py"
    spec = importlib.util.spec_from_file_location("domain_scan", tool)
    domain_scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(domain_scan)
    base = "time_points: 5\nsweep_points: 5\n"
    assert domain_scan.scan(key, verb, source, exponents, base, False) == expected


# Below hbar w / mu ~ 7e-8 the decay vertex cancels below rounding: at T = 0
# the integral printed gamma_per_s 0.0, and at 1.2e-15 K auto's integral
# ended in a line that named no key
VERTEX_CANCELS = {
    "integral_at_zero_T": "temperature_K: 0\nrate_source: integral\n",
    "auto_at_1.2e-15_K": "temperature_K: 1.2e-15\n",
}


@pytest.mark.parametrize("verb", ["rates", "trajectory", "sweep"])
@pytest.mark.parametrize("case", sorted(VERTEX_CANCELS))
def test_an_integral_below_its_decay_vertex_rounding_names_its_keys(tmp_path, verb, case):
    cfg = tmp_path / "cfg.yaml"
    omega = "1.6e-4" if case == "integral_at_zero_T" else "1.58e-4"
    if verb == "sweep":
        preset, key = "fig2", "sweep_omega_min_rad_per_s, sweep_omega_max_rad_per_s"
        sweep = f"sweep_omega_min_rad_per_s: {omega}\nsweep_points: 5\n"
        cfg.write_text(VERTEX_CANCELS[case] + sweep)
    else:
        preset, key = "fig1", "mode_frequency_rad_per_s"
        cfg.write_text(f"{VERTEX_CANCELS[case]}mode_frequency_rad_per_s: {omega}\n")
    out = tmp_path / "x.csv"
    code, stdout, stderr = run_cli_in_process(
        verb, "--preset", preset, "--config", str(cfg), "--out", str(out)
    )
    assert (code, stdout) == (2, "")
    assert stderr.startswith(
        f"error: {key} and temperature_K: the decay vertex 3 S_q S_k S_l + S_k + S_l - S_q"
        " cancels below rounding at eps = hbar w / mu = "
    )
    assert stderr.count("\n") == 1
    assert not out.exists()


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


def test_a_state_classical_at_t0_has_classicality_time_zero(tmp_path):
    # e^(-2 r0) >= mu0, so tau(0) = (1 - e^(-2 r0) / mu0) / 2 <= 0: the state
    # is classical from the start, though 1 - (mu_inf / mu0) e^(-2 r0) > 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"initial_purity": 0.3, "initial_squeezing": 0.0,'
        ' "temperature_K": 5.0e-8, "mode_frequency_rad_per_s": 100.0}'
    )
    out = tmp_path / "t.csv"
    code, _, stderr = run_cli_in_process(
        "trajectory", "--preset", "fig1", "--config", str(cfg), "--out", str(out)
    )
    assert (code, stderr) == (0, "")
    assert read_header(out)["t_tau0_s"] == "0.0"
    columns, rows = read_table(out)
    assert (rows[:, columns.index("tau")] == 0.0).all()


def test_a_squeezing_whose_purity_cross_term_overflows_runs(tmp_path):
    # cosh 2r0 = 1.5e307, so 2 rho c e cosh 2r0 leaves the float range inside
    # the purity, while every metric is finite; the rows are held to the
    # reference by tests/test_metric_reference.py
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
    assert (cp.returncode, cp.stderr) == (0, "")
    columns, rows = read_table(out)
    assert rows.shape == (500, 5) and np.isfinite(rows).all()
    # tools/metric_reference.py: mu 3.2698e-154 and r 177.29 at t = 0.012 s
    assert rows[1, columns.index("mu")] == pytest.approx(3.2697845073886757e-154, rel=1e-15)
    assert rows[1, columns.index("r")] == pytest.approx(177.28729785683865, abs=2e-8)


def run_cli_in_process(*argv: str) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli_main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def test_a_trajectory_at_a_rate_whose_gamma_t_overflows_reaches_mu_inf(tmp_path):
    # gamma t = 1e308 * t leaves the float range; e^(-gamma t) is 0.0 there
    # and not an overflow error
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("rate_source: explicit\ngamma_explicit_per_s: 1.0e+308\n")
    out = tmp_path / "t.csv"
    code, stdout, stderr = run_cli_in_process(
        "trajectory", "--preset", "fig1", "--config", str(cfg), "--out", str(out)
    )
    assert (code, stderr) == (0, "")
    columns, rows = read_table(out)
    assert np.isfinite(rows).all()
    mu_inf = float(read_header(out)["mu_inf"])
    assert (rows[1:, columns.index("mu")] == mu_inf).all()


# far above mu / hbar, where the Bogoliubov coefficient v_k tends to 0
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


def test_integral_sweep_through_5e4_rad_per_s_at_half_a_nanokelvin_runs(tmp_path):
    # its second frequency, 1e5 rad/s, brackets the points near 5.0e4 rad/s
    # where a relative budget on each channel's upward integral stopped the
    # quadrature (50 905.759 rad/s at 1.7 mm/s, 50 032.030 at 6.8 mm/s)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "rate_source: integral\nsweep_points: 5\nsweep_omega_max_rad_per_s: 1.0e+11\n"
    )
    out = tmp_path / "sweep.csv"
    code, _, stderr = run_cli_in_process(
        "sweep", "--preset", "fig2", "--config", str(cfg), "--out", str(out)
    )
    assert (code, stderr) == (0, "")
    _, rows = read_table(out)
    assert rows.shape == (15, 6) and np.all(np.isfinite(rows))


@pytest.mark.parametrize("speeds", ["[3.4e-3, 3.4e-3]", "[1.7e-3, 3.4e-3, 0.0034]"])
def test_a_repeated_sweep_speed_is_one_error_line(tmp_path, speeds):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"sweep_speeds_of_sound_m_per_s: {speeds}\n")
    out = tmp_path / "sweep.csv"
    code, _, stderr = run_cli_in_process(
        "sweep", "--preset", "fig2", "--config", str(cfg), "--out", str(out)
    )
    assert code == 2
    assert stderr == (
        "error: sweep_speeds_of_sound_m_per_s: 0.0034 is listed more than once\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "given, missing",
    [
        ("sweep_omega_max_rad_per_s", "sweep_omega_min_rad_per_s"),
        ("sweep_omega_min_rad_per_s", "sweep_omega_max_rad_per_s"),
    ],
)
def test_a_lone_sweep_frequency_key_names_the_missing_one(tmp_path, given, missing):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{given}": 1e5}}')
    code, stdout, stderr = run_cli_in_process("rates", "--preset", "fig1", "--config", str(cfg))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {missing}: required when {given} is set\n"


@pytest.mark.parametrize("minimum", ["1e4", "1e5"])
def test_a_sweep_range_whose_maximum_is_not_above_its_minimum_names_both_keys(
    tmp_path, minimum
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"sweep_omega_min_rad_per_s": {minimum}}}')
    out = tmp_path / "sweep.csv"
    code, stdout, stderr = run_cli_in_process(
        "sweep", "--preset", "fig2", "--config", str(cfg), "--out", str(out)
    )
    assert (code, stdout) == (2, "")
    assert stderr == (
        "error: sweep_omega_min_rad_per_s, sweep_omega_max_rad_per_s: the maximum"
        f" must exceed the minimum (got {float(minimum)!r} and 10000.0)\n"
    )


def test_a_render_that_fails_after_its_first_chunk_leaves_no_csv(tmp_path, monkeypatch):
    # the first chunk has reached the file when the second fails; the CLI
    # prints one error line and removes the truncated CSV
    out = tmp_path / "trajectory.csv"
    sizes = []  # of the file, as each chunk starts
    render = _repr._render

    def render_one_chunk(x, work):
        sizes.append(out.stat().st_size)
        if len(sizes) > 1:
            raise MemoryError("no memory for the second chunk")
        return render(x, work)

    monkeypatch.setattr(_repr, "_render", render_one_chunk)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"time_points": 5000}')
    code, stdout, stderr = run_cli_in_process(
        "trajectory", "--preset", "fig1", "--config", str(cfg), "--out", str(out)
    )
    assert (code, stdout, stderr) == (2, "", "error: no memory for the second chunk\n")
    assert sizes[1] > 100_000 and not out.exists()


def test_plotscript_rejects_an_out_path_that_its_script_would_overwrite(tmp_path):
    # the gnuplot script goes to the CSV's path with the suffix .gp
    code, stdout, stderr = run_cli_in_process(
        "plotscript", "--preset", "fig1", "--out", str(tmp_path / "plot.gp")
    )
    assert (code, stdout) == (2, "")
    assert stderr == (
        f"error: --out: {tmp_path / 'plot.gp'} ends in .gp, the gnuplot script's suffix\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb", [["sweep"], ["plotscript", "--kind", "sweep"]])
def test_a_sweep_without_a_range_names_both_keys(tmp_path, verb):
    out = tmp_path / "sweep.csv"
    code, stdout, stderr = run_cli_in_process(*verb, "--preset", "fig1", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == (
        "error: sweep_omega_min_rad_per_s, sweep_omega_max_rad_per_s: required by sweep\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_rates_and_the_header_square_the_speed_of_sound_as_a_product(tmp_path):
    # c_s**2 is not the correctly rounded square at this speed
    c = 5.763e-3
    m, a = RB87["mass_kg"], RB87["scattering_length_m"]
    g = 4.0 * math.pi * HBAR**2 * a / m
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"speed_of_sound_m_per_s": {c!r}}}')
    code, stdout, stderr = run_cli_in_process("rates", "--preset", "fig1", "--config", str(cfg))
    assert (code, stderr) == (0, "")
    report = dict(line.split(maxsplit=1) for line in stdout.splitlines())
    assert report["density_per_m3"] == repr(m * (c * c) / g) == "9.321161598092851e+20"
    out = tmp_path / "t.csv"
    code, _, stderr = run_cli_in_process(
        "trajectory", "--preset", "fig1", "--config", str(cfg), "--out", str(out)
    )
    assert (code, stderr) == (0, "")
    header = read_header(out)
    assert header["chemical_potential_J"] == repr(m * (c * c)) == "4.793050354267609e-30"
