"""HTTP server launcher for the open-loop workloads.

Started by ``run.py`` in a fresh interpreter with the ``repro`` sources
on ``PYTHONPATH``.  It imports the library, solves a tiny warm-up
problem, starts :func:`repro.serve_http` on a free port over the SQLite
store in ``--cache-dir`` and prints ``{"port": N}``.  It then waits for
``stop`` (or end of input) on stdin, closes the server, and prints one
JSON line with its peak RSS and, when traced, the server-side spans.

With ``--trace 1`` the span wrappers are installed before the server is
built, so HTTP handling, queueing, cache and store lookups, batch rounds
and the PAGANI work inside the server are all recorded.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    import repro
    from repro.integrands.catalog import named_integrand

    repro.integrate(named_integrand("2D-f4"), 2, rel_tol=1e-3)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, http=True)
    server = repro.serve_http(port=0, cache_dir=args.cache_dir)
    try:
        print(json.dumps({"port": server.port}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        server.close()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {"peak_rss_mb": (own + children) / 1024.0}
    if tracer is not None:
        report["trace"] = tracing.snapshot(tracer)
        if args.spans_out:
            tracing.write_spans(tracer, args.spans_out)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
