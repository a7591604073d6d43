"""The benchmark's workloads: seeded inputs, the CLI commands of one job, and
the checks each command's output must pass.

A job is the list of CLI commands a workload runs, one after the other.  The
seed perturbs only physical inputs, inside ranges that keep the code path and
the amount of work fixed; ``check_*`` asserts those invariants on every
output (same regime tag, same number of root-found crossings).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Independent reference for the spontaneous-decay rate the fig1 scenario
# selects (CODATA values, 87Rb with a = 5.31 nm).
HBAR = 1.054571817e-34
K_B = 1.380649e-23
RB87_MASS = 86.909180527 * 1.66053906660e-27
RB87_A = 5.31e-9

TRAJECTORY_COLUMNS = ["t_s", "mu", "tau", "r", "occupation"]
SWEEP_COLUMNS = [
    "speed_of_sound_m_per_s",
    "omega_rad_per_s",
    "gamma_per_s",
    "t_min_s",
    "t_half_s",
    "truncated",
]
FIG2_SPEEDS = (1.7e-3, 3.4e-3, 6.8e-3)
FIG2_CROSSINGS = 2  # the 6.8 mm/s curve never meets the half-life


class CheckError(Exception):
    """An output failed a benchmark check."""


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments, the files it writes and their check.

    ``args`` may hold ``{in}`` and ``{out}`` placeholders for the input and
    output directories.  ``check(stdout, files)`` raises CheckError.
    """

    args: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[str, dict[str, bytes]], None]

    def argv(self, in_dir: Path, out_dir: Path) -> list[str]:
        return [a.format(**{"in": in_dir, "out": out_dir}) for a in self.args]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[random.Random], dict[str, dict]]
    commands: Callable[[dict[str, dict]], list[Command]]

    def make_inputs(self, seed: int) -> dict[str, dict]:
        return self.inputs(random.Random(f"{self.name}:{seed}"))


# The generated files also restate the preset values the checks depend on.
def fig1_inputs(rng: random.Random) -> dict:
    # kT / (hbar w) stays below 0.01 over these ranges, far inside the
    # 0.3 threshold of the `quantum` regime.
    return {
        "mode_frequency_rad_per_s": rng.uniform(0.8e4, 1.25e4),
        "initial_squeezing": rng.uniform(8.0, 12.0),
        "speed_of_sound_m_per_s": 3.4e-3 * rng.uniform(0.9, 1.1),
        "temperature_K": 0.5e-9,
        "time_points": 500,
        "rate_source": "auto",
    }


def fig2_inputs(rng: random.Random) -> dict:
    # The crossing frequency scales about as c_s^2.2; the 3.4 mm/s crossing
    # sits at 8.6 krad/s (integral rates), so +-5 % keeps it below the
    # 10 krad/s sweep edge and the crossing count at FIG2_CROSSINGS.
    return {
        "initial_squeezing": rng.uniform(8.0, 12.0),
        "sweep_speeds_of_sound_m_per_s": [c * rng.uniform(0.95, 1.05) for c in FIG2_SPEEDS],
        "sweep_points": 50,
        "rate_source": "auto",
    }


def read_csv(data: bytes) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(commented header, column names, rows) of a phonodec CSV."""
    text = data.decode("utf-8")
    header = {}
    lines = text.splitlines()
    n_comments = 0
    for line in lines:
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(" = ")
        header[key] = value
        n_comments += 1
    reader = csv.reader(io.StringIO("\n".join(lines[n_comments:])))
    columns = next(reader, [])
    return header, columns, list(reader)


def _cell(value: str) -> float | None:
    if value == "none":
        return None
    try:
        number = float(value)
    except ValueError:
        raise CheckError(f"cell {value!r} is not a number") from None
    if not math.isfinite(number):
        raise CheckError(f"cell {value!r} is not finite")
    return number


def check_table(data: bytes, columns: list[str], n_rows: int) -> tuple[dict, list[list]]:
    header, got_columns, rows = read_csv(data)
    if got_columns != columns:
        raise CheckError(f"columns {got_columns} != {columns}")
    if len(rows) != n_rows:
        raise CheckError(f"{len(rows)} rows, expected {n_rows}")
    table = []
    for row in rows:
        if len(row) != len(columns):
            raise CheckError(f"row of {len(row)} cells: {row}")
        table.append([_cell(v) for v in row])
    return header, table


def expect(header: dict, key: str, value: str) -> None:
    if header.get(key) != value:
        raise CheckError(f"header {key} = {header.get(key)!r}, expected {value!r}")


def check_trajectory(cfg: dict, data: bytes) -> None:
    header, table = check_table(data, TRAJECTORY_COLUMNS, cfg["time_points"])
    expect(header, "kind", "trajectory")
    expect(header, "regime", "quantum")
    expect(header, "rate_source", cfg["rate_source"])
    for t, mu, tau, r, occ in table:
        if not (0.0 <= mu <= 1.0 and r >= 0.0 and occ >= 0.0):
            raise CheckError(f"metric out of range at t = {t}")
    check_gamma(cfg, float(header["gamma_per_s"]))


def check_sweep(cfg: dict, data: bytes) -> None:
    speeds = cfg["sweep_speeds_of_sound_m_per_s"]
    header, table = check_table(data, SWEEP_COLUMNS, len(speeds) * cfg["sweep_points"])
    expect(header, "kind", "sweep")
    expect(header, "rate_source", cfg["rate_source"])
    crossings = [
        value
        for key, value in header.items()
        if key.startswith("truncation_omega_rad_per_s") and value != "none"
    ]
    if len(crossings) != FIG2_CROSSINGS:
        raise CheckError(f"{len(crossings)} crossings, expected {FIG2_CROSSINGS}")
    if sorted({row[0] for row in table}) != sorted(speeds):
        raise CheckError("sweep speeds differ from the input")
    if any(row[5] not in (0.0, 1.0) for row in table):
        raise CheckError("truncated flag is not 0/1")


def check_gamma(cfg: dict, gamma: float) -> None:
    """The `quantum` rate against the Beliaev closed form computed here."""
    omega, c_s = cfg["mode_frequency_rad_per_s"], cfg["speed_of_sound_m_per_s"]
    coupling = 4.0 * math.pi * HBAR**2 * RB87_A / RB87_MASS
    density = RB87_MASS * c_s**2 / coupling
    ratio = K_B * cfg["temperature_K"] / (HBAR * omega)
    want = (
        3.0 / (640.0 * math.pi) * HBAR * omega**5 / (RB87_MASS * density * c_s**5)
    ) * (1.0 + ratio**3)
    if not math.isclose(gamma, want, rel_tol=1e-9):
        raise CheckError(f"gamma {gamma!r} != closed form {want!r}")


def check_rates(cfg: dict, stdout: str) -> None:
    fields = dict(line.split(None, 1) for line in stdout.splitlines() if line.strip())
    if fields.get("regime") != "quantum":
        raise CheckError(f"rates regime {fields.get('regime')!r}, expected 'quantum'")
    check_gamma(cfg, float(fields["gamma_per_s"]))


def check_gnuplot(data: bytes, csv_name: str) -> None:
    if f'"{csv_name}"' not in data.decode("utf-8"):
        raise CheckError(f"gnuplot script does not plot {csv_name}")


def closed_form_commands(inputs: dict) -> list[Command]:
    fig1, fig2 = inputs["fig1.yaml"], inputs["fig2.yaml"]
    scenario1 = ("--preset", "fig1", "--config", "{in}/fig1.yaml")
    scenario2 = ("--preset", "fig2", "--config", "{in}/fig2.yaml")
    return [
        Command(("rates", *scenario1), (), lambda out, f: check_rates(fig1, out)),
        Command(
            ("trajectory", *scenario1, "--out", "{out}/trajectory.csv"),
            ("trajectory.csv",),
            lambda out, f: check_trajectory(fig1, f["trajectory.csv"]),
        ),
        Command(
            ("sweep", *scenario2, "--out", "{out}/sweep.csv"),
            ("sweep.csv",),
            lambda out, f: check_sweep(fig2, f["sweep.csv"]),
        ),
        Command(
            ("plotscript", *scenario1, "--kind", "trajectory", "--out", "{out}/plot_t.csv"),
            ("plot_t.csv", "plot_t.gp"),
            lambda out, f: (
                check_trajectory(fig1, f["plot_t.csv"]),
                check_gnuplot(f["plot_t.gp"], "plot_t.csv"),
            ),
        ),
        Command(
            ("plotscript", *scenario2, "--kind", "sweep", "--out", "{out}/plot_s.csv"),
            ("plot_s.csv", "plot_s.gp"),
            lambda out, f: (
                check_sweep(fig2, f["plot_s.csv"]),
                check_gnuplot(f["plot_s.gp"], "plot_s.csv"),
            ),
        ),
    ]


def single_table(verb: str, preset: str, scenario: str, check) -> Callable:
    """Commands of a job that is one CSV-writing verb on one seeded scenario."""

    def commands(inputs: dict) -> list[Command]:
        cfg, csv_name = inputs[scenario], f"{verb}.csv"
        return [
            Command(
                (verb, "--preset", preset, "--config", f"{{in}}/{scenario}",
                 "--out", f"{{out}}/{csv_name}"),
                (csv_name,),
                lambda out, f: check(cfg, f[csv_name]),
            )
        ]

    return commands


def check_verify(stdout: str) -> None:
    if "RESULT: 5/5 checks passed" not in stdout:
        raise CheckError("verify did not report RESULT: 5/5")


# Why each workload is here: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "closed_form_cli",
            lambda rng: {"fig1.yaml": fig1_inputs(rng), "fig2.yaml": fig2_inputs(rng)},
            closed_form_commands,
        ),
        Workload(
            "dense_trajectory",
            lambda rng: {"dense.yaml": {**fig1_inputs(rng), "time_points": 200000}},
            single_table("trajectory", "fig1", "dense.yaml", check_trajectory),
        ),
        Workload(
            "integral_sweep",
            lambda rng: {
                "integral.yaml": {
                    **fig2_inputs(rng),
                    "rate_source": "integral",
                    "sweep_points": 150,
                }
            },
            single_table("sweep", "fig2", "integral.yaml", check_sweep),
        ),
        Workload(
            "verify",
            lambda rng: {},
            lambda inputs: [
                Command(("verify", "--tolerance", "1.0"), (), lambda out, f: check_verify(out))
            ],
        ),
    )
}


def write_inputs(inputs: dict[str, dict], in_dir: Path) -> None:
    """Write each scenario as a YAML file (JSON is a subset of YAML)."""
    in_dir.mkdir(parents=True, exist_ok=True)
    for name, scenario in inputs.items():
        (in_dir / name).write_text(json.dumps(scenario, indent=1) + "\n", encoding="utf-8")
