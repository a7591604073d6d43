"""Per-layer tracing of one phonodec CLI command, from outside the package.

Run as a script, this is the launcher of a traced job:

    python perfbench/tracer.py SPANS_FILE JOB_ID -- <phonodec CLI arguments>

It times the ``phonodec.cli`` import as a span, wraps the module-level
names that callers look up (listed in ``TARGETS``), calls
``phonodec.cli.main(argv)`` inside a ``cli.main`` span and, at exit, writes
the spans (layer, start, end, parent) and counters it kept in memory to
SPANS_FILE as JSON, under the job id.  Nothing
under ``src/`` is edited.  A target that no longer exists is listed as
missing, and the metrics that depend on it are reported as absent.

Imported as a module, it turns the span files of one job into per-layer
values (``job_values``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

# Wrapped functions: "module.name" in phonodec -> layer.  Self time of every
# span is credited to its layer.
TARGETS = {
    "config.preset_config": "config",
    "config.validate_config": "config",
    "runs.resolve_rate": "damping.rate",
    "damping.select_regime": "damping.rate",
    "damping.gamma_beliaev_asymptotic": "damping.rate",
    "damping.gamma_landau_high_temperature": "damping.rate",
    "damping.gamma_landau_low_temperature": "damping.rate",
    "damping.gamma_integral": "damping.integral",
    "runs.brentq": "runs.root",
    "decoherence.metric_trajectory": "decoherence",
    "decoherence.purity_minimum_time": "decoherence",
    "runs.to_csv": "runs.csv",
    "runs.write_csv": "runs.write",
    "verify.check_fixed_point": "verify.fixed_point",
    "verify.check_detailed_balance": "verify.detailed_balance",
    "verify.check_lyapunov_consistency": "verify.lyapunov_consistency",
    "verify.check_fock_oracle": "verify.fock_oracle",
    "verify.check_rate_integrals": "verify.rate_integrals",
    "fock.lindblad_step_integrate": "fock.integrate",
    "lyapunov.evolve_numeric": "lyapunov.evolve_numeric",
}
# Counted but not timed, so their time stays in the caller's self time.
COUNTED = {"damping.quad": "damping.quad"}

VERIFY_CHECKS = tuple(
    layer.split(".", 1)[1] for layer in TARGETS.values() if layer.startswith("verify.")
)


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self, job: str) -> None:
        self.job = job
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.margins: dict[str, float] = {}
        self.missing: list[str] = []
        self._open: list[int] = []

    def start(self, layer: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([layer, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def dump(self, path: str) -> None:
        data = {
            "job": self.job,
            "spans": self.spans,
            "counts": self.counts,
            "margins": self.margins,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _timed(tracer: Tracer, layer: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.start(layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        _observe(tracer, layer, args, out)
        return out

    if layer == "runs.root":
        # brentq(f, a, b, ...): count the evaluations of f it makes.
        @functools.wraps(fn)
        def root_wrapper(f, *args, **kwargs):
            def counted(*fargs):
                tracer.count("runs.root.evals")
                return f(*fargs)

            return wrapper(counted, *args, **kwargs)

        return root_wrapper
    return wrapper


def _observe(tracer: Tracer, layer: str, args: tuple, out) -> None:
    """Counters read from a wrapped call's arguments and result, outside its span."""
    if layer == "runs.csv":
        tracer.count("runs.csv.rows", len(args[0].rows))
        tracer.count("runs.csv.bytes", len(out.encode("utf-8")))
    elif layer == "decoherence" and hasattr(out, "t"):
        tracer.count("decoherence.points", len(out.t))
    elif layer.startswith("verify."):
        margin = out.max_deviation / out.tolerance
        tracer.margins[layer] = max(margin, tracer.margins.get(layer, 0.0))


def _counted_quad(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        tracer.count("damping.quad.calls")
        if kwargs.get("full_output"):
            tracer.count("damping.quad.neval", out[2]["neval"])
        return out

    return wrapper


def install(tracer: Tracer) -> None:
    """Replace every phonodec module-level binding of each target.

    A function imported by name into several modules (``from .runs import
    resolve_rate``) is bound once per module, so every binding is replaced,
    as are the elements of module-level tuples such as
    ``verify.ALL_CHECKS``.
    """
    replace = {}
    for target, layer in {**TARGETS, **COUNTED}.items():
        module_name, name = target.split(".")
        module = sys.modules.get(f"phonodec.{module_name}")
        fn = getattr(module, name, None)
        if not callable(fn):
            tracer.missing.append(target)
            continue
        replace[fn] = _counted_quad(tracer, fn) if target in COUNTED else _timed(tracer, layer, fn)

    for module_name, module in list(sys.modules.items()):
        if not isinstance(module, types.ModuleType):
            continue
        if module_name != "phonodec" and not module_name.startswith("phonodec."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, tuple):
                if any(_hashable_in(v, replace) for v in value):
                    setattr(
                        module,
                        attr,
                        tuple(replace[v] if _hashable_in(v, replace) else v for v in value),
                    )
            elif _hashable_in(value, replace):
                setattr(module, attr, replace[value])


def _hashable_in(value, table: dict) -> bool:
    try:
        return value in table
    except TypeError:
        return False


def job_values(span_files: list[dict]) -> dict[str, float]:
    """Per-layer values of one job, summed over its processes.

    Busy time is self time: a span's duration minus the durations of its
    direct child spans.  ``<layer>.calls`` counts spans not nested in a span
    of the same layer, and ``<layer>.incl_s`` sums their full durations.
    """
    values: dict[str, float] = {}
    for data in span_files:
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (layer, start, end, parent) in enumerate(spans):
            _add(values, f"{layer}.self_s", end - start - child_time[i])
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != layer:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                _add(values, f"{layer}.calls", 1)
                _add(values, f"{layer}.incl_s", end - start)
        for name, n in data["counts"].items():
            _add(values, name, n)
        for layer, margin in data["margins"].items():
            values[f"{layer}.margin"] = max(margin, values.get(f"{layer}.margin", 0.0))
    return values


def missing_layers(span_files: list[dict]) -> set[str]:
    """Layers with a wrapped name that no longer exists in phonodec."""
    layers = {**TARGETS, **COUNTED}
    return {layers[t] for data in span_files for t in data["missing"]}


def _add(values: dict, key: str, n: float) -> None:
    values[key] = values.get(key, 0) + n


def main(argv: list[str]) -> int:
    spans_path, job, sep, cli_argv = argv[0], argv[1], argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE JOB_ID -- <phonodec arguments>")
    tracer = Tracer(job)
    try:
        index = tracer.start("import")
        try:
            cli = importlib.import_module("phonodec.cli")
        finally:
            tracer.end(index)
        install(tracer)
        index = tracer.start("cli.main")
        try:
            return cli.main(cli_argv)
        finally:
            tracer.end(index)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
