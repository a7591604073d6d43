"""Step config keys by decades and report where each verb first fails.

For every key, verb and rate source, the key's value is stepped one decade
at a time from its start over a preset (``rates`` and ``trajectory`` on
fig1, ``sweep`` on fig2) and the verb runs in process, as the command line
runs it.  A decade *fails* when the run exits 2 with an error line whose
key part does not name the scanned key, or exits 0 with anything on
stderr.  A decade is *rejected* when the run exits 2 with one
``error: <keys>: ...`` line naming the key.  One line is printed per key,
verb and source: the first rejected decade, then the first failing decade
with the first line of its stderr, or ``none`` for either.

    PYTHONPATH=src python tools/domain_scan.py --set temperature_K=0
    PYTHONPATH=src python tools/domain_scan.py scattering_length_m \\
        --set temperature_K=0 --set speed_of_sound_m_per_s=null \\
        --set density_per_m3=1.0e+20
    PYTHONPATH=src python tools/domain_scan.py temperature_K --up --regime-warnings

Each ``--set KEY=VALUE`` adds one YAML line to every run's overlay; every
run also sets ``time_points: 5`` and ``sweep_points: 5``, and under
``rate_source: explicit`` ``gamma_explicit_per_s: 0.5`` unless that is the
scanned key (a later YAML key would win over it).  A list key such
as ``sweep_speeds_of_sound_m_per_s`` takes the value as a one-entry list.
With ``--regime-warnings``, stderr made only of the ``warning: ...`` lines
that a closed form evaluated outside its validity region prints (a
``RegimeWarning``, by design under ``rate_source: asymptotic``) counts as
empty.
Uses the standard library and phonodec only.
"""

from __future__ import annotations

import argparse
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from phonodec.cli import main as cli_main
from phonodec.damping import RATE_SOURCES

VERBS = ("rates", "trajectory", "sweep")
CONDENSATE_KEYS = (
    "speed_of_sound_m_per_s",
    "density_per_m3",
    "sweep_speeds_of_sound_m_per_s",
    "mass_kg",
    "scattering_length_m",
)
# the decade each scan starts from: the presets' value, or the default's
START = {
    "speed_of_sound_m_per_s": -3,
    "density_per_m3": 20,
    "sweep_speeds_of_sound_m_per_s": -3,
    "mass_kg": -25,
    "scattering_length_m": -9,
    "three_body_l3_m6_per_s": -42,
    "temperature_K": -9,
    "mode_frequency_rad_per_s": 4,
    "quadrature_rel_tol": -6,
}
LIST_KEYS = {"sweep_speeds_of_sound_m_per_s"}
# a density scan drops the presets' speed of sound; a scan of one sweep
# frequency key sets the other to fig2's value, since fig1 has neither
EXTRA = {
    "density_per_m3": "speed_of_sound_m_per_s: null\n",
    "sweep_omega_min_rad_per_s": "sweep_omega_max_rad_per_s: 1.0e+4\n",
    "sweep_omega_max_rad_per_s": "sweep_omega_min_rad_per_s: 1.0e+3\n",
}


def run_once(verb: str, overlay: str) -> tuple[int, str]:
    """(exit code, stderr) of one in-process run of ``verb`` over ``overlay``."""
    preset = "fig2" if verb == "sweep" else "fig1"
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.yaml"
        cfg.write_text(overlay)
        argv = [verb, "--preset", preset, "--config", str(cfg), "--out", f"{tmp}/x.csv"]
        stderr = io.StringIO()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                code = cli_main(argv)
        except Exception as exc:  # escaped the command line's own handler
            return 1, f"uncaught {type(exc).__name__}: {exc}\n"
    return code, stderr.getvalue()


def names_key(stderr: str, key: str) -> bool:
    """Whether ``stderr`` is one ``error: <keys>: ...`` line naming ``key``."""
    if stderr.count("\n") != 1 or not stderr.startswith("error: "):
        return False
    return key in stderr[len("error: "):].split(": ", 1)[0]


def regime_warnings_only(stderr: str) -> bool:
    return all(
        line.startswith("warning: ") and "validity region" in line
        for line in stderr.splitlines()
    )


def scan(
    key: str, verb: str, source: str, exponents, base: str, allow_regime: bool
) -> tuple[str, str]:
    """(first rejected decade, first failing decade and its stderr line)."""
    rejected = "none"
    for exponent in exponents:
        value = float(f"1e{exponent}")
        text = f"[{value!r}]" if key in LIST_KEYS else repr(value)
        overlay = f"{base}rate_source: {source}\n{EXTRA.get(key, '')}{key}: {text}\n"
        if source == "explicit" and key != "gamma_explicit_per_s":
            overlay += "gamma_explicit_per_s: 0.5\n"
        code, stderr = run_once(verb, overlay)
        if code == 2 and names_key(stderr, key):
            if rejected == "none":
                rejected = f"1e{exponent}"
        elif code != 0 or (stderr and not (allow_regime and regime_warnings_only(stderr))):
            return rejected, f"1e{exponent}  {stderr.splitlines()[0]}"
    return rejected, "none"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("keys", nargs="*", default=list(CONDENSATE_KEYS))
    parser.add_argument("--up", action="store_true", help="step upward (default: down)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--regime-warnings", action="store_true")
    args = parser.parse_args(argv)

    base = "time_points: 5\nsweep_points: 5\n"
    base += "".join("{}: {}\n".format(*item.split("=", 1)) for item in args.set)
    print(f"# {'key':<30} {'verb':<10} {'source':<10} {'rejected from':<13} first failure")
    for key in args.keys:
        start = START.get(key, 0)
        # 1e-323 is the smallest decade above 0, 1e308 the largest below inf
        exponents = range(start, 309) if args.up else range(start, -324, -1)
        for verb in VERBS:
            for source in RATE_SOURCES:
                rejected, failure = scan(
                    key, verb, source, exponents, base, args.regime_warnings
                )
                print(
                    f"{key:<32} {verb:<10} {source:<10} {rejected:<13} {failure}",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
