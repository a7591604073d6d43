"""phonodec benchmark: the CLI verbs run as subprocesses, closed loop, one client.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--jobs N]

Each job runs its workload's CLI commands one child at a time against
``src/`` of this checkout and checks every output.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from a traced run (see
``tracer.py``) plus the tracing overhead.  ``--workload all`` (the default)
runs every workload both ways.  The last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
a results file with the run environment goes to ``perfbench/out/``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from hostspeed import HostSpeed
from workloads import WORKLOADS, CheckError, Workload, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PYTHON = sys.executable
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 30.0  # the slowest command takes about 4 s

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, key in tracer.job_values).  Busy times are self
# times; cli.main_s, runs.root_busy_s and verify.<check>_s are inclusive.
PER_LAYER = {
    "cli.main_s": ("s", "cli.main.incl_s"),
    "config.calls": ("count", "config.calls"),
    "config.busy_s": ("s", "config.self_s"),
    "damping.rate_calls": ("count", "damping.rate.calls"),
    "damping.rate_busy_s": ("s", "damping.rate.self_s"),
    "damping.integral_calls": ("count", "damping.integral.calls"),
    "damping.integral_busy_s": ("s", "damping.integral.self_s"),
    "damping.quad_calls": ("count", "damping.quad.calls"),
    "damping.quad_neval": ("count", "damping.quad.neval"),
    "runs.root_calls": ("count", "runs.root.calls"),
    "runs.root_evals": ("count", "runs.root.evals"),
    "runs.root_busy_s": ("s", "runs.root.incl_s"),
    "decoherence.calls": ("count", "decoherence.calls"),
    "decoherence.points": ("count", "decoherence.points"),
    "decoherence.busy_s": ("s", "decoherence.self_s"),
    "runs.csv_busy_s": ("s", "runs.csv.self_s"),
    "runs.csv_rows": ("count", "runs.csv.rows"),
    "runs.csv_bytes": ("bytes", "runs.csv.bytes"),
    "runs.write_busy_s": ("s", "runs.write.self_s"),
    **{
        name: spec
        for check in tracer.VERIFY_CHECKS
        for name, spec in (
            (f"verify.{check}_s", ("s", f"verify.{check}.incl_s")),
            (f"verify.{check}_margin", ("ratio", f"verify.{check}.margin")),
        )
    },
    "fock.integrate_busy_s": ("s", "fock.integrate.self_s"),
    "lyapunov.evolve_numeric_busy_s": ("s", "lyapunov.evolve_numeric.self_s"),
}
# Measured in the traced run's set-up rather than from spans.
SETUP_LAYER = {"python.start_s": "s", "import.total_s": "s", "import.scipy_s": "s"}
HOST_LAYER = {"host.reference_s": "s"}
DERIVED_LAYER = {"damping.neval_per_integral": "count", "trace.overhead_s": "s"}


@dataclass
class Child:
    returncode: int
    wall_s: float
    max_rss_kb: int
    speed_index: int = -1  # host speed sample before it, for set-up children


@dataclass
class Job:
    traced: bool
    wall_s: float
    error: str | None
    children: list[Child]
    span_files: list[dict] = field(default_factory=list)
    speed_index: int = -1  # host speed sample taken before the job


class Run:
    """One workload, one seed: the working directory and the jobs run in it."""

    def __init__(self, workload: Workload, seed: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.work = OUT / f"work-{workload.name}-{seed}-{int(traced)}"
        self.in_dir = self.work / "in"
        self.out_dir = self.work / "out"
        self.log_dir = self.work / "log"
        self.env = {k: v for k, v in os.environ.items() if k != "PHONODEC_OUTDIR"}
        self.env["PYTHONPATH"] = str(SRC)
        self.inputs = workload.make_inputs(seed)
        self.commands = workload.commands(self.inputs)
        self.hashes: dict[str, str] = {}  # first job's outputs; repeats must match
        self.jobs: list[Job] = []
        self.speed = HostSpeed()

    def __enter__(self) -> "Run":
        shutil.rmtree(self.work, ignore_errors=True)
        for d in (self.in_dir, self.out_dir, self.log_dir):
            d.mkdir(parents=True)
        write_inputs(self.inputs, self.in_dir)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, argv: list[str], log: str) -> Child:
        """Run one child to completion; its max RSS comes from wait4."""
        with open(self.log_dir / f"{log}.out", "wb") as out, open(
            self.log_dir / f"{log}.err", "wb"
        ) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss)

    def setup_times(self, argv: list[str], log: str) -> list[Child]:
        """SETUP_REPEATS runs of a set-up command; a failure ends the benchmark."""
        children = []
        for i in range(SETUP_REPEATS):
            index = self.speed.sample()
            children.append(self.spawn(argv, f"{log}{i}"))
            children[-1].speed_index = index
            if children[-1].returncode != 0:
                err = (self.log_dir / f"{log}{i}.err").read_text(errors="replace")
                raise SystemExit(f"set-up command {argv} failed:\n{err}")
        return children

    def run_job(self, traced: bool) -> Job:
        job_id = f"{self.workload.name}-{self.seed}-{len(self.jobs)}"
        shutil.rmtree(self.out_dir)
        self.out_dir.mkdir()
        spans = []
        children: list[Child] = []
        error = None
        start = time.perf_counter()
        for i, command in enumerate(self.commands):
            argv = command.argv(self.in_dir, self.out_dir)
            if traced:
                spans.append(self.log_dir / f"spans{i}.json")
                argv = [PYTHON, str(HERE / "tracer.py"), str(spans[-1]), job_id, "--", *argv]
            else:
                argv = [PYTHON, "-m", "phonodec", *argv]
            child = self.spawn(argv, f"cmd{i}")
            children.append(child)
            if child.returncode != 0:
                timed_out = child.wall_s >= COMMAND_TIMEOUT_S
                error = f"command {i} {'timed out' if timed_out else f'exited {child.returncode}'}"
                break
        wall = time.perf_counter() - start
        if error is None:
            error = self.check_outputs()
        job = Job(traced, wall, error, children)
        if traced and error is None:
            job.span_files = [json.loads(p.read_text()) for p in spans]
        self.jobs.append(job)
        return job

    def check_outputs(self) -> str | None:
        """Check the first job's outputs; later jobs must repeat them byte for byte."""
        for i, command in enumerate(self.commands):
            stdout = (self.log_dir / f"cmd{i}.out").read_bytes()
            files = {}
            for name in command.outputs:
                path = self.out_dir / name
                if not path.is_file():
                    return f"command {i} wrote no {name}"
                files[name] = path.read_bytes()
            digests = {
                f"{command.args[0]}[{i}].stdout": hashlib.sha256(stdout).hexdigest(),
                **{name: hashlib.sha256(data).hexdigest() for name, data in files.items()},
            }
            if any(key not in self.hashes for key in digests):
                try:
                    command.check(stdout.decode("utf-8"), files)
                except (CheckError, KeyError, ValueError) as exc:
                    return f"command {i} ({command.args[0]}): {exc}"
                self.hashes.update(digests)
            for key, digest in digests.items():
                if self.hashes[key] != digest:
                    return f"{key} differs from the first job's"
        return None


def parse_importtime(text: str) -> tuple[float, float]:
    """(phonodec.cli import, scipy part of it) in seconds from -X importtime.

    Lines come children first; the name's indent gives the depth.  scipy time
    is the cumulative time of each scipy module not nested in another.
    """
    entries = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        cumulative = parts[1].strip()
        if not cumulative.isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(cumulative) * 1e-6, name.strip()))
    total = scipy = 0.0
    in_scipy: dict[int, bool] = {}
    for depth, cumulative, name in reversed(entries):
        parent_in = depth > 0 and in_scipy.get(depth - 1, False)
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not parent_in:
            scipy += cumulative
        in_scipy[depth] = parent_in or is_scipy
        if depth == 0 and (name == "phonodec" or name.startswith("phonodec.")):
            total += cumulative
    return total, scipy


def measure(run: Run, traced: bool, seconds: float, jobs: int | None) -> dict:
    """Set up, run jobs until the time (or job count) is spent, return metrics.

    End-to-end times are wall times scaled to the reference host speed
    (hostspeed.py); the raw wall times go to the results file.
    """
    setup: dict[str, float] = {}
    if traced:
        starts = run.setup_times([PYTHON, "-c", "pass"], "start")
        setup["python.start_s"] = statistics.median([c.wall_s for c in starts])
        run.setup_times([PYTHON, "-X", "importtime", "-c", "import phonodec.cli"], "imp")
        imports = [
            parse_importtime((run.log_dir / f"imp{i}.err").read_text())
            for i in range(SETUP_REPEATS)
        ]
        setup["import.total_s"] = statistics.median([t for t, _ in imports])
        setup["import.scipy_s"] = statistics.median([s for _, s in imports])
    else:
        setup_children = run.setup_times([PYTHON, "-c", "import phonodec.cli"], "setup")

    loop_start = time.perf_counter()
    while True:
        # The traced run alternates untraced and traced jobs, so both
        # medians see the same machine state.
        index = run.speed.sample()
        job = run.run_job(traced and len(run.jobs) % 2 == 1)
        job.speed_index = index
        kinds = [j.traced for j in run.jobs]
        if jobs is not None:
            done = kinds.count(False) >= jobs and (not traced or kinds.count(True) >= jobs)
        else:
            elapsed = time.perf_counter() - loop_start
            done = elapsed + job.wall_s > seconds and (not traced or True in kinds)
        if done:
            break
    run.speed.sample()

    plain = [j for j in run.jobs if not j.traced]
    # A job that failed early would read fast; use it only if none succeeded.
    plain_ok = [j for j in plain if j.error is None] or plain
    if not traced:
        scaled = [run.speed.scaled(j.wall_s, j.speed_index) for j in plain_ok]
        total = sum(run.speed.scaled(j.wall_s, j.speed_index) for j in plain)
        return {
            "setup_s": statistics.median(
                [run.speed.scaled(c.wall_s, c.speed_index) for c in setup_children]
            ),
            "job_p50_s": statistics.median(scaled),
            "jobs_per_s": sum(j.error is None for j in plain) / total,
            "peak_rss_mb": max(c.max_rss_kb for j in plain for c in j.children) / 1024.0,
        }
    return {
        **setup,
        **layer_metrics(run.jobs, statistics.median([j.wall_s for j in plain_ok])),
        "host.reference_s": run.speed.reference_s(),
    }


def layer_metrics(jobs: list[Job], untraced_p50: float) -> dict[str, float]:
    """Median over traced jobs of each per-layer metric; absent if its layer is gone."""
    traced = [j for j in jobs if j.traced and j.error is None]
    if not traced:
        return {}
    per_job = [tracer.job_values(j.span_files) for j in traced]
    missing = set().union(*(tracer.missing_layers(j.span_files) for j in traced))
    out = {}
    for name, (_, key) in PER_LAYER.items():
        if key.rsplit(".", 1)[0] not in missing:
            out[name] = statistics.median([values.get(key, 0) for values in per_job])
    if not {"damping.quad", "damping.integral"} & missing:
        quad = out["damping.quad_neval"]
        calls = out["damping.integral_calls"]
        out["damping.neval_per_integral"] = quad / calls if calls else 0.0
    out["trace.overhead_s"] = statistics.median([j.wall_s for j in traced]) - untraced_p50
    return out


def environment(workload: str, seed: int, jobs: list[Job]) -> dict:
    versions = {}
    for package in ("numpy", "scipy", "PyYAML"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        **versions,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": commit,
        "workload": workload,
        "seed": seed,
        "jobs": {"untraced": sum(not j.traced for j in jobs), "traced": sum(j.traced for j in jobs)},
    }


def units() -> dict[str, str]:
    return {
        **END_TO_END,
        **SETUP_LAYER,
        **HOST_LAYER,
        **{name: unit for name, (unit, _) in PER_LAYER.items()},
        **DERIVED_LAYER,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, jobs: int | None) -> dict:
    """One measured run; prints its table and writes its results file."""
    with Run(WORKLOADS[name], seed, traced) as run:
        metrics = measure(run, traced, seconds, jobs)
        hashes = dict(run.hashes)
    failures = [j.error for j in run.jobs if j.error]
    result = {
        "environment": environment(name, seed, run.jobs),
        "trace": int(traced),
        "seconds": seconds,
        "inputs": run.inputs,
        "output_sha256": hashes,
        "job_wall_s": [[j.wall_s, j.traced] for j in run.jobs],
        "job_scaled_s": [run.speed.scaled(j.wall_s, j.speed_index) for j in run.jobs],
        "host_reference_s": run.speed.samples,
        "failures": failures,
        "failed_frac": len(failures) / len(run.jobs),
        "attempted": len(run.jobs),
        "failed": len(failures),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    unit = units()
    env = result["environment"]
    print(
        f"== {name}  seed {seed}  {'traced' if traced else 'untraced'}  "
        f"jobs {env['jobs']}  python {env['python']}  numpy {env['numpy']}  "
        f"scipy {env['scipy']}  PyYAML {env['PyYAML']}  cpus {env['cpu_count']}"
    )
    for metric, value in metrics.items():
        if metric != "trace.overhead_s":
            print(f"  {metric:<34s} {value:>14.6g} {unit[metric]}")
    print(f"  {'failed_frac':<34s} {result['failed_frac']:>14.6g} ({len(failures)}/{len(run.jobs)})")
    if traced:
        for metric in (*SETUP_LAYER, *PER_LAYER, *DERIVED_LAYER, *HOST_LAYER):
            if metric not in metrics:
                print(f"  {metric:<34s} {'absent':>14s}")
        if "trace.overhead_s" in metrics:
            print(f"  tracing overhead {metrics['trace.overhead_s']:.6g} s per job")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(f"  results: {path.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--jobs", type=int, help="run this many jobs per kind instead of --seconds")
    args = parser.parse_args(argv)
    if not (SRC / "phonodec" / "cli.py").is_file():
        print(f"error: no phonodec sources at {SRC}", file=sys.stderr)
        return 2
    # One core for the benchmark and every child, so the host speed reference
    # (hostspeed.py) is timed on the core the jobs run on, and no job moves
    # between cores that other tenants load differently.  OpenBLAS then runs
    # one thread.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    results = {
        (name, traced): run_workload(name, args.seed, args.seconds, traced, args.jobs)
        for name in names
        for traced in modes
    }
    unit = units()
    if len(results) == 1:
        (result,) = results.values()
        metrics = {m: {"value": v, "unit": unit[m]} for m, v in result["metrics"].items()}
    else:
        metrics = {
            f"{name}/{m}": {"value": v, "unit": unit[m]}
            for (name, _), result in results.items()
            for m, v in result["metrics"].items()
        }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
