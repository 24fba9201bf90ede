"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit|serve|update-churn --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it are a readable report.  The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fit", "serve", "update-churn")
#: Environment of every run and of the server it starts.  Set and dict
#: iteration order follows the string-hash seed, and with it the program's
#: memory high-water mark and part of its timing: under one fixed hash seed
#: a workload seed repeats both.  A second BLAS thread busy-waits
#: between the many small matrix products of the online and update paths,
#: so on a 2-vCPU machine it takes the core the server, the client or the
#: machine's other tenants need, and the timing measures the scheduler.
RUN_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: End-to-end metrics: name -> unit (see BENCHMARK.json and README.md).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "rate_per_s": "1/s",
}


def main(argv: list[str]) -> int:
    """Run the workload named in ``argv``; returns the exit code."""
    description = __doc__.splitlines()[0]
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=description)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sources = ROOT / "src" / "repro"
    if not (sources / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({sources})", file=sys.stderr)
        return 2
    if any(os.environ.get(name) != value for name, value in RUN_ENV.items()):
        # Start again under RUN_ENV: same process, no child to wait for.
        os.environ.update(RUN_ENV)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import churn, fit, layers, serve
    from perfbench.spans import Tracer, install_layer_wrappers

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_layer_wrappers(tracer)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "fit":
            result = fit.run(args.seed, args.seconds)
        elif args.workload == "serve":
            result = serve.run(args.seed, args.seconds, workdir, trace=bool(args.trace))
        else:
            result = churn.run(args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit) in result.named.items():
        print(f"  {name:<24} {value:>14.4f} {unit}")
    print(json.dumps(result.report, sort_keys=True, default=str))
    if tracer is None:
        units = END_TO_END
        values = result.metrics
    else:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        cost = layers.span_cost_seconds()
        values = layers.per_layer_metrics(result, tracer.spans, cost, result.metrics["p50_ms"])
    line = {
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
