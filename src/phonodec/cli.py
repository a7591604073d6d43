"""Command-line interface.

Verbs: ``trajectory`` (metric time series as CSV), ``sweep`` (decoherence
time vs frequency), ``rates`` (damping-rate breakdown), ``verify``
(self-verification suite), ``plotscript`` (CSV plus a gnuplot script).

A scenario comes from ``--preset fig1|fig2`` and/or ``--config FILE``
(config keys overlay the preset).  Output paths default to the current
directory; the PHONODEC_OUTDIR environment variable relocates them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from pathlib import Path

from .config import (
    ConfigError,
    PRESETS,
    ScenarioConfig,
    preset_config,
    read_config_file,
    validate_config,
)
from .runs import rates_report, run_sweep, run_trajectory, write_csv
from .verify import format_report, run_verification


def _scenario(args) -> ScenarioConfig:
    if args.preset is None and args.config is None:
        raise ConfigError("a scenario is required: give --preset and/or --config")
    overrides = None if args.config is None else read_config_file(args.config)
    if args.preset is not None:
        return preset_config(args.preset, overrides)
    return validate_config(overrides)


def _out_path(args, default_name: str) -> Path:
    out = args.out if args.out is not None else Path(default_name)
    out = Path(out)
    if not out.is_absolute():
        out = Path(os.environ.get("PHONODEC_OUTDIR", ".")) / out
    return out


def _write_table(args, kind: str):
    """Run the scenario as a ``kind`` ("trajectory" or "sweep"), write its CSV
    and report the path; returns the run and the path."""
    run = (run_trajectory if kind == "trajectory" else run_sweep)(_scenario(args))
    path = _out_path(args, f"{kind}.csv")
    write_csv(run, path)
    print(f"wrote {path}")
    return run, path


def _cmd_trajectory(args) -> int:
    _write_table(args, "trajectory")
    return 0


def _cmd_sweep(args) -> int:
    _write_table(args, "sweep")
    return 0


def _cmd_rates(args) -> int:
    print(rates_report(_scenario(args)))
    return 0


def _cmd_verify(args) -> int:
    results = run_verification(args.tolerance)
    print(format_report(results, args.tolerance))
    return 0 if all(res.passed for res in results) else 1


_TRAJECTORY_GP = """\
set datafile separator ","
set datafile commentschars "#"
set terminal pngcairo size 1200,900
set output "{stem}.png"
set multiplot layout 2,2
set xlabel "t [s]"
set ylabel "purity"
plot "{csv}" using 1:2 with lines notitle
set ylabel "nonclassical depth"
plot "{csv}" using 1:3 with lines notitle
set ylabel "squeezing r"
plot "{csv}" using 1:4 with lines notitle
set ylabel "occupation"
set logscale y
plot "{csv}" using 1:5 with lines notitle
unset multiplot
"""

_SWEEP_GP = """\
set datafile separator ","
set datafile commentschars "#"
set terminal pngcairo size 900,700
set output "{stem}.png"
set logscale xy
set xlabel "mode frequency [rad/s]"
set ylabel "decoherence time t_min [s]"
plot {plots}
"""


def _cmd_plotscript(args) -> int:
    run, csv_path = _write_table(args, args.kind)
    gp_path = csv_path.with_suffix(".gp")
    if args.kind == "trajectory":
        script = _TRAJECTORY_GP.format(csv=csv_path.name, stem=csv_path.stem)
    else:
        speeds = sorted({row[0] for row in run.rows})
        plots = ", \\\n     ".join(
            f'"{csv_path.name}" using ($1=={c_s!r}?$2:1/0):4 with lines'
            f' title "c_s = {c_s!r} m/s"'
            for c_s in speeds
        )
        script = _SWEEP_GP.format(stem=csv_path.stem, plots=plots)
    with open(gp_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)
    print(f"wrote {gp_path}")
    return 0


def _tolerance_scale(text: str) -> float:
    """``--tolerance``: a positive finite number; inf would pass every check
    and nan or a negative one fail every check, whatever the physics."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonodec",
        description=(
            "Open-system evolution and decoherence timescales of single-mode "
            "Gaussian phonon states in a uniform Bose-Einstein condensate."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(sp):
        sp.add_argument("--config", type=Path, help="YAML or JSON scenario file")
        sp.add_argument(
            "--preset", choices=sorted(PRESETS), help="shipped scenario preset"
        )
        sp.add_argument("--out", type=Path, help="output file path")

    sp = sub.add_parser("trajectory", help="metric time series as CSV")
    add_scenario_args(sp)
    sp.set_defaults(func=_cmd_trajectory)

    sp = sub.add_parser("sweep", help="decoherence time vs mode frequency as CSV")
    add_scenario_args(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("rates", help="print the damping-rate breakdown")
    add_scenario_args(sp)
    sp.set_defaults(func=_cmd_rates)

    sp = sub.add_parser("verify", help="run the self-verification suite")
    sp.add_argument(
        "--tolerance",
        type=_tolerance_scale,
        default=1.0,
        help="scale factor applied to every check tolerance",
    )
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("plotscript", help="write CSV plus a gnuplot script")
    add_scenario_args(sp)
    sp.add_argument(
        "--kind", choices=("trajectory", "sweep"), default="trajectory"
    )
    sp.set_defaults(func=_cmd_plotscript)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (
            ConfigError, OSError, ValueError, ArithmeticError, RuntimeError, MemoryError
        ) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
