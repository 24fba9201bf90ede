"""Start ``repro.serve``'s CLI with the benchmark's optional layer tracing.

Usage::

    python3 perfbench/serve_boot.py --rss-out FILE [--trace-out FILE] -- SERVE_ARGS...

``SERVE_ARGS`` go to :func:`repro.serve.cli.main` unchanged.  With
``--trace-out`` the layer wrappers of :mod:`perfbench.spans` are
installed first.  On exit (SIGINT stops the server) the process writes
its peak RSS in MB to ``--rss-out`` and its spans to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    """Serve with ``repro.serve``'s CLI; returns its exit code."""
    parser = argparse.ArgumentParser(prog="serve_boot")
    parser.add_argument("--rss-out", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    tracer = None
    if args.trace_out:
        from perfbench.spans import Tracer, install_layer_wrappers

        tracer = Tracer()
        install_layer_wrappers(tracer)
    from repro.serve.cli import main as serve_main

    from perfbench.workload import peak_rss_mb

    try:
        return serve_main(serve_args)
    finally:
        Path(args.rss_out).write_text(f"{peak_rss_mb()}\n", encoding="utf-8")
        if tracer is not None:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
