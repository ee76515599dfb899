"""One repetition of a closed-loop workload, in a fresh interpreter.

Started by ``run.py`` with the ``repro`` sources on ``PYTHONPATH``.  It
imports the library, solves a tiny warm-up problem, prints a ``ready``
line (the parent times set-up up to that line), then makes the
workload's API calls one after another, checks every answer against the
catalogue's closed-form reference, and prints one JSON report line.
``--workload setup`` stops after the ``ready`` line: a bare cold start.

A fresh interpreter per repetition keeps the rule cache, the shared
router's learned rates, process pools and the LRU from leaking between
repetitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its waited-for children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _answer_ok(result, spec: str) -> bool:
    """Within its own error estimate of the closed-form reference."""
    ref = stats.reference_of(spec)
    return (
        result is not None
        and ref is not None
        and stats.within_own_error(result.estimate, result.errorest, ref)
    )


def run_solve_suite(repro, seed: int, tracer):
    from repro.integrands.catalog import named_integrand

    calls = []
    for spec, tol in workloads.suite_order(seed):
        fn = named_integrand(spec)
        stats.reference_of(spec)  # resolve outside the timed call
        frame = tracer.begin("api.call") if tracer else None
        t0 = time.perf_counter()
        result = repro.integrate(fn, fn.ndim, rel_tol=tol)
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.end(frame)
        calls.append({
            "job": f"{spec}@{tol:g}", "key": f"{spec}@{tol:g}", "seconds": seconds,
            "neval": result.neval, "status": result.status.value,
            "converged": result.converged, "answer_ok": _answer_ok(result, spec),
            "backend": "numpy",
        })
    return calls


def run_sweep_auto(repro, seed: int, tracer):
    from repro.backends.routing import shared_router
    from repro.integrands.catalog import named_integrand

    calls = []
    for k, (members, tol) in enumerate(workloads.sweep_calls(seed)):
        fns = [named_integrand(m) for m in members]
        for m in members:
            stats.reference_of(m)
        frame = tracer.begin("api.call") if tracer else None
        t0 = time.perf_counter()
        results = repro.integrate_many(fns, rel_tol=tol, backend="auto")
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.end(frame)
        calls.append({
            "job": f"sweep[{len(members)}]@{tol:.9g}", "key": f"call{k + 1}",
            "seconds": seconds,
            "neval": sum(r.neval for r in results if r is not None),
            "status": ",".join(sorted({r.status.value for r in results if r})),
            "converged": all(r is not None and r.converged for r in results),
            "answer_ok": all(_answer_ok(r, m) for r, m in zip(results, members)),
            "backend": shared_router().last_decision.backend,
        })
    return calls


def close_pools() -> dict:
    """Shut down the routed process pool (so its workers count in the
    peak RSS of waited children) and return the router's decisions."""
    from repro.backends import get_backend
    from repro.backends.routing import shared_router

    router = shared_router()
    decisions = dict(router.stats()["decisions"])
    if decisions.get("process"):
        get_backend(f"process:{router.process_width}").close()
    return decisions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("solve_suite", "sweep_auto", "setup"),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    import repro
    from repro.integrands.catalog import named_integrand

    warm = named_integrand("2D-f4")
    repro.integrate(warm, 2, rel_tol=1e-3)
    print(json.dumps({"ready": True}), flush=True)
    if args.workload == "setup":
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    run = run_solve_suite if args.workload == "solve_suite" else run_sweep_auto
    calls = run(repro, args.seed, tracer)
    decisions = close_pools()
    report = {
        "calls": calls,
        "route_decisions": decisions,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        report["trace"] = tracing.snapshot(tracer)
        if args.spans_out:
            tracing.write_spans(tracer, args.spans_out)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
