"""Fast self-test of the benchmark: one job of each kind per workload.

    python3 perfbench/selftest.py

Asserts that every end-to-end and per-layer metric is emitted, that no job
fails on the unchanged program, and that each workload's largest layer is
the one the benchmark was built to expose.  Exits nonzero on any failure.
"""

from __future__ import annotations

import sys

import run

# Totals are not items: import.total_s contains import.scipy_s and cli.main_s
# contains every span below it.  host.reference_s is the benchmark's own work.
NOT_ITEMS = {
    "python.start_s", "import.total_s", "cli.main_s", "trace.overhead_s", "host.reference_s"
}
LARGEST = {
    "closed_form_cli": "import.scipy_s",
    "dense_trajectory": "runs.csv_busy_s",
    "integral_sweep": "damping.integral_busy_s",
    "verify": "verify.fock_oracle_s",
}


def main() -> int:
    problems = []
    for name in run.WORKLOADS:
        for traced in (False, True):
            result = run.run_workload(name, seed=0, seconds=0.0, traced=traced, jobs=1)
            metrics = result["metrics"]
            wanted = (
                [*run.SETUP_LAYER, *run.PER_LAYER, *run.DERIVED_LAYER, *run.HOST_LAYER]
                if traced
                else list(run.END_TO_END)
            )
            missing = [m for m in wanted if m not in metrics]
            if missing:
                problems.append(f"{name}: missing {missing}")
            if result["failed_frac"] != 0:
                problems.append(f"{name}: failed_frac {result['failed_frac']}: {result['failures']}")
            if traced and not missing:
                items = {
                    m: v for m, v in metrics.items()
                    if m not in NOT_ITEMS and run.units()[m] == "s"
                }
                largest = max(items, key=items.get)
                if largest != LARGEST[name]:
                    problems.append(f"{name}: largest layer is {largest}, not {LARGEST[name]}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
