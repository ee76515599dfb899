"""Command-line interface.

Examples
--------
Integrate a paper integrand with PAGANI::

    pagani-repro run --integrand 8D-f7 --rel-tol 1e-6

Compare all methods on one integrand::

    pagani-repro compare --integrand 5D-f4 --rel-tol 1e-5

Integrate a batch of independent integrands over one shared backend::

    pagani-repro batch --integrands 3D-f3,5D-f4,6D-genz-gaussian --backend threaded

Serve a jobs file through the integration service (priority queue +
result cache)::

    pagani-repro serve --jobs jobs.json --max-concurrent 4 --out results.json

Expose the service over HTTP with a durable (restart-surviving) result
cache — add ``--jobs`` to replay a file through the API and exit::

    pagani-repro serve --http 0.0.0.0:8053 --cache-dir /var/cache/pagani

List the available named integrands::

    pagani-repro list
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.api import integrate, integrate_many, integrate_sweep
from repro.backends import (
    BackendUnavailableError,
    available_backends,
    backend_spec_help,
    get_backend,
    resolve_backend,
)
from repro.errors import ConfigurationError
from repro.integrands.catalog import FACTORIES as _FACTORIES
from repro.integrands.catalog import (
    expand_sweep,
    is_sweep_spec,
    named_integrand,
)
from repro.integrands.genz import GenzFamily

__all__ = ["main", "named_integrand"]


def _resolve_backend(spec: str):
    """Validate a --backend spec, falling back to numpy when unusable.

    Unknown names are hard errors (a typo should not silently change the
    run); *known but unavailable* backends — process on a host where
    pools cannot run — degrade to the reference backend with a warning,
    so scripts written for bigger boxes still run everywhere.  ``"auto"``
    is passed through as the spec string: the router resolves it per job,
    not the CLI.
    """
    if spec == "auto":
        return "auto"
    try:
        return get_backend(spec)
    except BackendUnavailableError as exc:
        print(f"warning: backend {spec!r} unavailable ({exc}); "
              "falling back to numpy", file=sys.stderr)
        return get_backend("numpy")


def _backend_name(backend) -> str:
    """Display name for a resolved backend (spec string or instance)."""
    return backend if isinstance(backend, str) else backend.name


def _print_result(res, truth: Optional[float]) -> None:
    print(res)
    if truth is not None and truth != 0.0:
        print(f"  true value     : {truth:.12g}")
        print(f"  true rel error : {abs(res.estimate - truth) / abs(truth):.3e}")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="pagani-repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate with one method")
    run.add_argument(
        "--integrand", required=True,
        help="e.g. 8D-f7, 6D-genz-gaussian, semi_infinite(3D-f4, scale=2.0), "
        "or a sweep spec like sweep:gaussian_measure(2D-f4, sigma=0.5;1.0)",
    )
    run.add_argument("--method", default="pagani",
                     choices=["pagani", "cuhre", "two_phase", "qmc", "vegas"])
    run.add_argument("--rel-tol", type=float, default=1e-3)
    run.add_argument("--abs-tol", type=float, default=1e-20)
    run.add_argument("--max-eval", type=int, default=None)
    run.add_argument(
        "--backend", default="numpy",
        help="execution backend for PAGANI: one of "
        f"{backend_spec_help()} (default numpy), or auto (route to the "
        "cheapest adequate backend); unavailable backends fall back to "
        "numpy with a warning",
    )
    run.add_argument(
        "--escalate", nargs="?", const="default", default=None,
        metavar="POLICY",
        help="re-run failed PAGANI jobs down a baseline ladder; bare flag "
        "uses the stock two_phase>vegas>qmc ladder, or pass a descriptor "
        "like 'two_phase>vegas;watchdog=8;max_eval=500000' (pagani only)",
    )

    comp = sub.add_parser("compare", help="run all methods on one integrand")
    comp.add_argument("--integrand", required=True)
    comp.add_argument("--rel-tol", type=float, default=1e-3)
    comp.add_argument("--max-eval", type=int, default=50_000_000)
    comp.add_argument(
        "--backend", default="numpy",
        help=f"execution backend for the PAGANI rows ({backend_spec_help()}; "
        "baselines always run their own substrate)",
    )

    sub.add_parser("list", help="list named integrands")

    batch = sub.add_parser(
        "batch", help="integrate many integrands as one batched workload"
    )
    batch.add_argument(
        "--integrands", required=True,
        help="comma-separated specs, e.g. 3D-f3,5D-f4,6D-genz-gaussian; "
        "transform specs (semi_infinite(3D-f4, scale=2.0)) and sweep "
        "specs (sweep:gaussian_measure(2D-f4, sigma=0.5;1.0), expanded "
        "in place) are accepted too",
    )
    batch.add_argument("--rel-tol", type=float, default=1e-3)
    batch.add_argument("--abs-tol", type=float, default=1e-20)
    batch.add_argument(
        "--backend", default="numpy",
        help="shared execution backend for the whole batch: one of "
        f"{backend_spec_help()} (numpy keeps results bit-identical to "
        "sequential runs; threaded/process fuse the members' evaluation "
        "chunks for throughput; auto routes the batch by its summed "
        "first-sweep cost)",
    )
    batch.add_argument(
        "--chunk-budget", type=int, default=None,
        help="override the per-member chunk budget (floats per chunk)",
    )

    serve = sub.add_parser(
        "serve",
        help="run a jobs file through the integration service "
        "(priority queue + result cache)",
    )
    serve.add_argument(
        "--jobs", default=None,
        help="path to a jobs JSON file: a list (or {\"jobs\": [...]}) of "
        "{\"integrand\": \"5D-f4\", \"rel_tol\": 1e-4, \"priority\": 3, ...}; "
        "required unless --http starts a long-running server",
    )
    serve.add_argument(
        "--http", default=None, metavar="HOST:PORT",
        help="expose the service over HTTP/JSON at this address "
        "(port 0 picks a free port).  With --jobs the file is replayed "
        "through the HTTP API and the process exits; without it the "
        "server runs until interrupted",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persist results to a SQLite store under PATH (durable "
        "tier behind the LRU): duplicate jobs replay bit-for-bit even "
        "across server restarts",
    )
    serve.add_argument(
        "--max-queued", type=int, default=64,
        help="HTTP admission bound: POSTs are 429-rejected while this "
        "many jobs are already queued (default 64)",
    )
    serve.add_argument(
        "--max-concurrent", type=int, default=4,
        help="jobs admitted into the batch rotation at once (default 4)",
    )
    serve.add_argument(
        "--backend", default="numpy",
        help=f"execution backend spec for every job ({backend_spec_help()}; "
        "each shard resolves its own instance); auto routes each job "
        "by its predicted cost and jobs may pin their own with a per-job "
        "\"backend\" field",
    )
    serve.add_argument(
        "--shards", type=int, default=1,
        help="independent worker rotations serving the shared queue "
        "(default 1); each shard pins its own backend instance",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=256,
        help="result-cache LRU capacity (default 256)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache (every job recomputes)",
    )
    serve.add_argument(
        "--escalate", nargs="?", const="default", default=None,
        metavar="POLICY",
        help="service-wide default baseline escalation for failed PAGANI "
        "jobs (bare flag = stock two_phase>vegas>qmc ladder, or a "
        "descriptor); per-job \"escalation\" fields override it",
    )
    serve.add_argument(
        "--out", default=None,
        help="write machine-readable per-job results JSON here",
    )

    args = parser.parse_args(argv)

    if args.command == "list":
        for key in sorted(_FACTORIES):
            print(f"  <n>D-{key}   e.g. 8D-{key}")
        print("  <n>D-genz-<family> with family in "
              f"{[f.value for f in GenzFamily]}")
        print(f"  backends available here: {available_backends()}")
        return 0

    if args.command == "batch":
        return _run_batch(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "run" and is_sweep_spec(args.integrand):
        return _run_sweep(args)
    try:
        integrand = named_integrand(args.integrand)
        backend = _resolve_backend(args.backend)
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "run":
        try:
            res = integrate(
                integrand, integrand.ndim, rel_tol=args.rel_tol,
                abs_tol=args.abs_tol, method=args.method,
                max_eval=args.max_eval,
                backend=backend if args.method == "pagani" else None,
                escalation=args.escalate,
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _print_result(res, integrand.reference)
        if res.escalated:
            ladder = " -> ".join(s.method for s in res.escalation)
            print(f"  escalated      : {ladder}")
        return 0 if res.converged else 1

    # compare
    for method in ("pagani", "two_phase", "cuhre", "qmc", "vegas"):
        res = integrate(
            integrand, integrand.ndim, rel_tol=args.rel_tol,
            method=method, max_eval=args.max_eval,
            backend=backend if method == "pagani" else None,
        )
        _print_result(res, integrand.reference)
    return 0


def _run_sweep(args) -> int:
    """``run`` with a ``sweep:`` spec: one fused parameter sweep."""
    if args.escalate is not None:
        print("error: --escalate applies to single runs, not sweeps",
              file=sys.stderr)
        return 2
    if args.method != "pagani":
        print("error: sweep specs run through PAGANI only", file=sys.stderr)
        return 2
    try:
        backend = _resolve_backend(args.backend)
        pairs = integrate_sweep(
            args.integrand, rel_tol=args.rel_tol, abs_tol=args.abs_tol,
            backend=backend,
        )
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name_w = max(len(spec) for spec, _ in pairs)
    print(f"{'member'.ljust(name_w)}  {'status':<16} {'estimate':>16} "
          f"{'errorest':>10}")
    for spec, res in pairs:
        print(f"{spec.ljust(name_w)}  {res.status.value:<16} "
              f"{res.estimate:>16.9g} {res.errorest:>10.3g}")
    n_ok = sum(res.converged for _, res in pairs)
    print(f"\n{n_ok}/{len(pairs)} members converged on backend "
          f"{_backend_name(backend)!r}")
    return 0 if n_ok == len(pairs) else 1


def _split_specs(text: str):
    """Split a comma-separated spec list, respecting parens/brackets
    (transform specs hold commas), and expand ``sweep:`` members in
    place."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in spec list {text!r}")

    specs = []
    for part in parts:
        part = part.strip()
        if not part:
            continue
        if is_sweep_spec(part):
            specs.extend(expand_sweep(part))
        else:
            specs.append(part)
    return specs


def _run_batch(args) -> int:
    """The ``batch`` subcommand: one fused workload over a shared backend."""
    import time

    try:
        members = [named_integrand(spec) for spec in _split_specs(args.integrands)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not members:
        print("error: --integrands named no integrands", file=sys.stderr)
        return 2
    try:
        backend = _resolve_backend(args.backend)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    results, stats = integrate_many(
        members,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        backend=backend,
        chunk_budget=args.chunk_budget,
        return_stats=True,
    )
    wall = time.perf_counter() - t0

    name_w = max(len(f.name) for f in members)
    print(f"{'integrand'.ljust(name_w)}  {'status':<16} {'estimate':>16} "
          f"{'errorest':>10} {'iters':>5}  true rel err")
    for f, res in zip(members, results):
        true_rel = res.true_rel_error()
        true_s = f"{true_rel:.3e}" if true_rel is not None else "-"
        print(f"{f.name.ljust(name_w)}  {res.status.value:<16} "
              f"{res.estimate:>16.9g} {res.errorest:>10.3g} "
              f"{res.iterations:>5}  {true_s}")
    n_ok = sum(r.converged for r in results)
    print(f"\n{n_ok}/{len(results)} converged in {wall:.2f} s on backend "
          f"{_backend_name(backend)!r} ({stats.rounds} rounds, "
          f"{stats.chunks_submitted} fused chunks, "
          f"{stats.fused_submissions} submissions)")
    return 0 if n_ok == len(results) else 1


def _load_jobs_file(path: str):
    """Parse a jobs JSON file into its raw entry list (or an error str)."""
    import json

    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, f"cannot read jobs file: {exc}"
    entries = payload.get("jobs") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not entries:
        return None, ("jobs file must hold a non-empty list of jobs "
                      "(or {\"jobs\": [...]})")
    return entries, None


def _run_serve(args) -> int:
    """The ``serve`` subcommand: a jobs file through the service layer."""
    import json

    from repro.api import serve_jobs
    from repro.service import IntegrationService, JobStatus, JobSpec

    if args.http is not None:
        return _run_serve_http(args)
    if args.jobs is None:
        print("error: --jobs is required (only --http can run jobless)",
              file=sys.stderr)
        return 2
    entries, err = _load_jobs_file(args.jobs)
    if err is not None:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        specs = [JobSpec.from_dict(dict(entry)) for entry in entries]
        backend = _resolve_backend(args.backend)
    except (ConfigurationError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    # With shards > 1 pass the *spec string* so every shard builds its
    # own backend instance (own pool); detect the unavailable-backend
    # fallback by name so a downgraded spec stays downgraded.
    requested = resolve_backend(args.backend).family
    backend_arg = (
        backend
        if args.shards == 1
        else (args.backend if _backend_name(backend) == requested else "numpy")
    )
    cache_arg = not args.no_cache
    if args.cache_dir is not None and not args.no_cache:
        from repro.service import TieredResultCache

        cache_arg = TieredResultCache(
            args.cache_dir, max_entries=args.cache_entries
        )
    service = IntegrationService(
        max_concurrent=args.max_concurrent, backend=backend_arg,
        cache=cache_arg, cache_entries=args.cache_entries,
        shards=args.shards, escalation=args.escalate,
    )
    try:
        handles = serve_jobs(specs, service=service)
        stats = service.stats()
    finally:
        service.shutdown(wait=True)
        if hasattr(cache_arg, "close"):
            cache_arg.close()

    rows = []
    for handle in handles:
        row = {
            "job_id": handle.job_id,
            "label": handle.spec.label or str(handle.spec.integrand),
            "integrand": str(handle.spec.integrand),
            "priority": handle.spec.priority,
            "rel_tol": handle.spec.rel_tol,
            "status": handle.status.value,
            "cache_hit": handle.cache_hit,
            "escalated": handle.stats.escalated,
            "completion_index": handle.stats.completion_index,
            "queue_seconds": handle.stats.queue_seconds,
            "total_seconds": handle.stats.total_seconds,
        }
        if handle.status is JobStatus.DONE:
            res = handle.result(timeout=0)
            row.update(
                result_status=res.status.value, estimate=res.estimate,
                errorest=res.errorest, iterations=res.iterations,
                neval=res.neval, converged=res.converged,
            )
        elif handle.status is JobStatus.FAILED:
            row["error"] = repr(handle.exception(timeout=0))
        rows.append(row)

    label_w = max(len(r["label"]) for r in rows)
    print(f"{'label'.ljust(label_w)}  prio  {'status':<10} {'estimate':>16} "
          f"{'errorest':>10}  hit  order")
    for r in rows:
        est = f"{r['estimate']:>16.9g}" if "estimate" in r else " " * 16
        err = f"{r['errorest']:>10.3g}" if "errorest" in r else " " * 10
        order = "-" if r["completion_index"] is None else r["completion_index"]
        print(f"{r['label'].ljust(label_w)}  {r['priority']:>4}  "
              f"{r['status']:<10} {est} {err}  {'y' if r['cache_hit'] else 'n':>3}"
              f"  {order:>5}")
    n_ok = sum(r.get("converged", False) for r in rows)
    cache = stats.get("cache") or {}
    print(f"\n{n_ok}/{len(rows)} converged on backend "
          f"{_backend_name(backend)!r} "
          f"x{stats['shards']} shard(s) ({stats['rounds']} rotation rounds, "
          f"{cache.get('hits', 0)} cache hits, "
          f"{stats['coalesced']} coalesced)")

    if args.out:
        out_payload = {
            "schema": 1,
            "jobs": rows,
            "service": stats,
        }
        with open(args.out, "w") as fh:
            json.dump(out_payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if n_ok == len(rows) else 1


def _http_json(method: str, url: str, data=None, timeout: float = 30.0):
    """One JSON request; returns (status_code, parsed_body)."""
    import json
    import urllib.error
    import urllib.request

    req = urllib.request.Request(
        url, method=method,
        data=None if data is None else json.dumps(data).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _run_serve_http(args) -> int:
    """``serve --http``: start the HTTP server (and optionally replay a
    jobs file through it, which makes the command exit deterministically
    — the shape CI and tests use)."""
    import json
    import time

    from repro.api import serve_http

    host, sep, port_s = args.http.rpartition(":")
    try:
        port = int(port_s)
        if not sep or not host:
            raise ValueError
    except ValueError:
        print(f"error: --http wants HOST:PORT, got {args.http!r}",
              file=sys.stderr)
        return 2
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    entries = None
    if args.jobs is not None:
        entries, err = _load_jobs_file(args.jobs)
        if err is not None:
            print(f"error: {err}", file=sys.stderr)
            return 2
    try:
        backend = _resolve_backend(args.backend)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    requested = resolve_backend(args.backend).family
    backend_arg = (
        backend
        if args.shards == 1
        else (args.backend if _backend_name(backend) == requested else "numpy")
    )

    server = serve_http(
        host=host, port=port, max_concurrent=args.max_concurrent,
        backend=backend_arg, shards=args.shards,
        cache_entries=args.cache_entries, cache_dir=args.cache_dir,
        max_queued=args.max_queued, escalation=args.escalate,
    )
    print(f"serving on {server.url} "
          f"(backend {_backend_name(backend)!r} x{args.shards} shard(s)"
          f"{', durable cache ' + args.cache_dir if args.cache_dir else ''})")
    if entries is None:
        # long-running mode: block until Ctrl-C
        server.serve_forever()
        return 0

    try:
        rows = []
        for entry in entries:
            code, body = _http_json("POST", server.url + "/v1/jobs", entry)
            if code != 202:
                print(f"error: POST /v1/jobs -> {code}: "
                      f"{body.get('error', body)}", file=sys.stderr)
                return 2
            rows.append({"job_id": body["job_id"], "request": dict(entry)})
        for row in rows:
            jid = row["job_id"]
            while True:
                code, body = _http_json(
                    "GET", f"{server.url}/v1/jobs/{jid}/result"
                )
                if code != 409:
                    break
                time.sleep(0.05)
            row["http_status"] = code
            row.update(body)
        code, metrics = _http_json("GET", server.url + "/metrics")
    finally:
        server.close()

    label_w = max(
        len(str(r["request"].get("label") or r["request"]["integrand"]))
        for r in rows
    )
    print(f"{'label'.ljust(label_w)}  {'status':<10} {'estimate':>16} "
          f"{'errorest':>10}  hit")
    n_ok = 0
    for r in rows:
        label = str(r["request"].get("label") or r["request"]["integrand"])
        res = r.get("result") or {}
        converged = bool(res.get("converged"))
        n_ok += converged
        est = f"{res['estimate']:>16.9g}" if "estimate" in res else " " * 16
        erro = f"{res['errorest']:>10.3g}" if "errorest" in res else " " * 10
        print(f"{label.ljust(label_w)}  {r.get('status', '?'):<10} "
              f"{est} {erro}  {'y' if r.get('cache_hit') else 'n':>3}")
    cache = metrics["service"].get("cache") or {}
    print(f"\n{n_ok}/{len(rows)} converged over HTTP "
          f"({cache.get('hits', 0)} cache hits, "
          f"{cache.get('durable_hits', 0)} from the durable store)")

    if args.out:
        out_payload = {"schema": 1, "jobs": rows, "metrics": metrics}
        with open(args.out, "w") as fh:
            json.dump(out_payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if n_ok == len(rows) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
