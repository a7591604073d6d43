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
import gc
import importlib.util
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


def _lazy_module(name: str):
    """The module ``name``, whose body runs on its first attribute access.

    A module already in ``sys.modules`` is returned as it is, so that the CLI
    runs the one module every other importer sees.  Otherwise the module is
    registered there, and bound on its package, as an ``import`` statement
    would, but through ``importlib.util.LazyLoader``.
    """
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        package, _, child = name.rpartition(".")
        setattr(sys.modules[package], child, module)
    return module


# Only ``verify`` runs the self-check suite, and it alone loads ``fock``,
# ``lyapunov`` and ``_expm``; the other verbs never compile the four.  The
# module is lazy rather than imported inside ``_cmd_verify`` because
# perfbench/tracer.py wraps the names of the phonodec modules that are in
# ``sys.modules`` once ``phonodec.cli`` is imported: its first lookup of a
# ``verify`` name runs the body.
verify = _lazy_module("phonodec.verify")


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
    results = verify.run_verification(args.tolerance)
    print(verify.format_report(results, args.tolerance))
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
    if args.out is not None and args.out.suffix == ".gp":  # the script's own path
        raise ValueError(f"--out: {args.out} ends in .gp, the gnuplot script's suffix")
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


def process_main() -> int:
    """Entry point of a CLI process, ``python -m phonodec`` and the
    ``phonodec`` script: runs ``main``, then freezes the garbage collector,
    and returns the exit code for ``sys.exit``.

    Interpreter shutdown runs full collections over every object the process
    still tracks, about 21 700 once numpy and phonodec are loaded, and that
    is most of what shutdown costs (README, "How a CLI process ends").
    ``gc.freeze()`` moves them into the permanent generation, which those
    collections skip; deallocation by reference count, atexit handlers, the
    flush of stdout and stderr and the exit code are unchanged.  A cycle left
    at that point is not finalized, which is safe because every file ``main``
    writes is closed before it returns.

    ``main`` itself does not freeze: the tests, the benchmark's tracer and
    library callers run it in a process that goes on, where frozen objects
    would never be collected again.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(process_main())
