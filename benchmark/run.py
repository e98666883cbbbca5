"""Benchmark of cold L-operator rows and cocycle spaces.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload slopes-p2 --seed 1 --seconds 40 --trace 0

The run measures set-up time in fresh interpreters, imports `linvariant`
from `src/`, and then repeats whole rounds of the workload's operations, one
at a time in this one process, for about `--seconds`: it stops at the round
boundary nearest to that time and runs at least one round.  Every operation
is computed cold; nothing reads or writes a result cache.  Each output is
checked (see checks.py and oracle.py).

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics setup_s, wall_s and peak_rss_mb.  With `--trace 1` the
rounds alternate between untraced and traced, and the metrics are the
per-layer totals, self times and call counts of one traced round, and the
tracing overhead.  A report with every operation's time and every traced
name is written to benchmark/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import oracle
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_SAMPLES = 5
IMPORT = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "import linvariant.pipeline, linvariant.cocycles")

# Per-layer metrics of a traced round.  Each reads "<traced name>.<field>"
# (field s, self_s or calls) from the span summary, except those in
# COMBINED, which sum one field over several traced names.
PER_LAYER = [
    "integration.lambda_values.s", "integration.lambda_values.self_s",
    "integration.lambda_values.calls", "integration.log_kernel_series.s",
    "integration.log_kernel_series.calls", "integration.covering.s",
    "lifting.make_lift.s", "lifting.make_lift.calls",
    "lifting.sigma_series_matrix.s", "lifting.sigma_series_matrix.calls",
    "lifting.Lift.moments.s", "lifting.Lift.moments.calls",
    "loperator.l_matrix.self_s", "loperator.psi_values.s",
    "cocycles.harmonic_basis.s", "cocycles.harmonic_basis.calls",
    "cocycles.involution_matrix.s", "padics.solve_linear.s",
    "padics.solve_linear.calls", "padics.charpoly.s", "quaternions.s",
    "splitting.splitting_map.s", "domain.compute_fundamental_domain.s",
    "pipeline.attempts", "pipeline.size_parameters.self_s",
    "pipeline.build_context.calls",
]
COMBINED = {
    "quaternions.s": (("quaternions.build_algebra", "quaternions.maximal_order",
                       "quaternions.eichler_order"), "s"),
    # every attempt of compute_l_result sizes its parameters once
    "pipeline.attempts": (("pipeline.size_parameters",), "calls"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup() -> list[float]:
    """Seconds from starting an interpreter until `linvariant` is imported,
    once per sample."""
    out = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT, SRC], check=True,
                       stdin=subprocess.DEVNULL)
        out.append(time.perf_counter() - start)
    return out


def import_program():
    sys.path.insert(0, SRC)
    import linvariant.cocycles
    import linvariant.pipeline
    if not os.path.abspath(linvariant.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: imported linvariant from outside src/")
    return linvariant


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.op_seconds: dict[str, list[float]] = {}

    def run_round(self, ops, lib) -> float:
        start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            self.attempted += 1
            try:
                probs = op.run(lib)
            except Exception:
                self.failed += 1
                self.errors.append(f"{op.label}: {traceback.format_exc()}")
                continue
            finally:
                self.op_seconds.setdefault(op.label, []).append(
                    time.perf_counter() - t0)
            if probs:
                self.failed += 1
                self.wrong += 1
                self.errors.append(f"{op.label}: {probs}")
        return time.perf_counter() - start


def layer_metrics(summary: dict, rounds: int) -> dict:
    out = {}
    for metric in PER_LAYER:
        names, field = COMBINED.get(metric) or ((metric.rsplit(".", 1)[0],),
                                                metric.rsplit(".", 1)[1])
        total = sum(summary.get(n, {}).get(field, 0) for n in names)
        if field == "calls":
            value = total // rounds if total % rounds == 0 else total / rounds
            out[metric] = {"value": value, "unit": "count"}
        else:
            out[metric] = {"value": total / rounds, "unit": "s"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    oracle_bad = oracle.self_check()
    if oracle_bad:
        print(f"error: dimension oracle fails its own check: {oracle_bad}",
              file=sys.stderr)
        return 1
    if not os.path.isdir(os.path.join(SRC, "linvariant")):
        print(f"error: no linvariant package under {SRC}", file=sys.stderr)
        return 1
    setup = [] if args.trace else measure_setup()
    lib = import_program()
    ops = workloads.WORKLOADS[args.workload](args.seed, lib)

    tally = Tally()
    untraced: list[float] = []
    traced: list[float] = []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        untraced.append(tally.run_round(ops, lib))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(tally.run_round(ops, lib))
            finally:
                tracer.uninstall()
        # stop at the round boundary nearest to --seconds
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(untraced) / 2 >= args.seconds:
            break

    if args.trace:
        summary = tracer.summary()
        metrics = layer_metrics(summary, len(traced))
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(untraced),
            "unit": "s"}
    else:
        summary = None
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MB"},
        }
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}

    os.makedirs(RESULTS, exist_ok=True)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "setup_samples_s": setup, "untraced_rounds_s": untraced,
        "traced_rounds_s": traced, "operation_s": tally.op_seconds,
        "errors": tally.errors, "spans": summary,
        "span_records": len(tracer.spans) if tracer else 0,
        "result": result,
    }
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    for err in tally.errors:
        print(err, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
