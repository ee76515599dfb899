#!/usr/bin/env python
"""Quickstart: integrate a function with PAGANI and compare to baselines.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import integrate, integrate_many
from repro.integrands import Integrand


def main() -> None:
    # An integrand is a *batch* callable: it receives an (N, ndim) array of
    # points and returns the (N,) array of values.  Vectorised evaluation is
    # what the (simulated) GPU executes — never write per-point Python loops.
    def banana(x: np.ndarray) -> np.ndarray:
        """A curved ridge in 4-D: exp(-(x1 - x0^2)^2/0.05 - |x|^2)."""
        ridge = (x[:, 1] - x[:, 0] ** 2) ** 2 / 0.05
        return np.exp(-ridge - np.sum(x**2, axis=1))

    print("== PAGANI on a 4-D curved ridge ==")
    for tol in (1e-3, 1e-5, 1e-7):
        res = integrate(banana, ndim=4, rel_tol=tol)
        print(
            f"  rel_tol={tol:.0e}: estimate={res.estimate:.10f} "
            f"± {res.errorest:.2e}  ({res.iterations} iterations, "
            f"{res.nregions} regions, converged={res.converged})"
        )

    # Wrapping the function in an Integrand attaches metadata: a reference
    # value enables true-error reporting, flops_per_eval feeds the device
    # cost model, and sign_definite drives the §3.5.1 filtering flag.
    def product_cosine(x: np.ndarray) -> np.ndarray:
        return np.prod(np.cos(x), axis=1)

    truth = float(np.sin(1.0) ** 5)  # ∫ cos = sin(1) per axis
    f = Integrand(
        fn=product_cosine,
        ndim=5,
        name="5D prod-cos",
        reference=truth,
        flops_per_eval=30.0,
        sign_definite=True,
    )

    print("\n== All methods on 5-D prod(cos(x_i)) (truth known) ==")
    for method in ("pagani", "two_phase", "cuhre", "qmc"):
        res = integrate(f, ndim=5, rel_tol=1e-6, method=method, max_eval=20_000_000)
        true_err = res.true_rel_error()
        print(
            f"  {method:<10s}: {res.estimate:.12f}  est.rel.err={res.rel_errorest:.1e}"
            f"  true.rel.err={true_err:.1e}  sim={res.sim_seconds * 1e3:7.3f} ms"
        )

    # The hot path runs on a pluggable array backend: "numpy" (default),
    # "threaded"/"threaded:<N>" for multi-core hosts, "process"/"process:<N>"
    # for GIL-free multi-core (catalogue integrands ship to worker
    # processes; closures like `banana` run in-process).  Host backends
    # are bit-identical to the reference — only wall-clock changes.
    print("\n== Backend selection (identical results, different substrate) ==")
    for backend in ("numpy", "threaded", "process:2"):
        res = integrate(banana, ndim=4, rel_tol=1e-5, backend=backend)
        print(
            f"  backend={backend:<10s}: estimate={res.estimate:.12f}  "
            f"wall={res.wall_seconds * 1e3:7.1f} ms"
        )

    # Many independent integrals run as one batched workload: each live
    # integral gets one iteration per round (round-robin), their evaluation
    # chunks are fused into single backend submissions, and converged
    # members exit early, freeing their region memory.  On "numpy" the
    # results are bit-identical to sequential integrate() calls; "threaded"
    # trades that for throughput (see docs/batch.md).
    from repro.integrands.genz import make_genz

    batch = [make_genz("gaussian", d, seed=s) for s, d in enumerate((2, 3, 4))]
    batch.append(f)  # mixed workloads are fine — any ndim per member
    print("\n== Batched execution of 4 integrals (integrate_many) ==")
    results, stats = integrate_many(
        batch, rel_tol=1e-6, backend="threaded", return_stats=True
    )
    for g, res in zip(batch, results):
        print(
            f"  {g.name:<28s}: estimate={res.estimate:.10f}  "
            f"true.rel.err={res.true_rel_error():.1e}  "
            f"iters={res.iterations}"
        )
    print(
        f"  scheduler: {stats.rounds} rounds, {stats.chunks_submitted} "
        f"fused chunks, peak {stats.peak_live} live members"
    )

    # A *stream* of requests goes through the service layer: a priority
    # queue feeds up to max_concurrent jobs into a weighted rotation
    # (higher priority => served more iterations per round), and a
    # content-addressed LRU cache replays repeated requests bit-for-bit
    # instead of recomputing them (see docs/service.md).
    from repro.service import IntegrationService

    print("\n== Service mode: priorities + result cache (2 shards) ==")
    with IntegrationService(max_concurrent=4, shards=2) as svc:
        urgent = svc.submit("4D-genz-gaussian", rel_tol=1e-6, priority=4)
        background = svc.submit("3D-f4", rel_tol=1e-5, priority=1)
        repeat = svc.submit("4D-genz-gaussian", rel_tol=1e-6)  # duplicate
        for label, handle in (
            ("urgent (prio 4)", urgent),
            ("background    ", background),
            ("repeat        ", repeat),
        ):
            res = handle.result()
            hit = "cache hit" if handle.cache_hit else "computed "
            print(
                f"  {label}: estimate={res.estimate:.10f}  {hit}  "
                f"finished #{handle.stats.completion_index}"
            )
        cache = svc.stats()["cache"]
        print(
            f"  service: {svc.stats()['rounds']} rotation rounds, "
            f"{cache['hits']} cache hits, "
            f"{svc.stats()['coalesced']} coalesced"
        )

    # The same service is reachable over the network: serve_http() binds
    # an HTTP/JSON API (stdlib server, no extra dependency) and any HTTP
    # client — here a dependency-free asyncio one — drives the full
    # submit → poll → result → shutdown round trip.  Passing
    # cache_dir= would additionally persist results to SQLite so
    # duplicates replay bit-for-bit even across server restarts.
    import asyncio

    from repro import serve_http

    print("\n== HTTP server: asyncio client round trip ==")

    async def http_json(method: str, host: str, port: int, path: str,
                        body: dict = None):
        """Minimal HTTP/1.1 JSON request on raw asyncio streams."""
        import json

        payload = b"" if body is None else json.dumps(body).encode()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n".encode() + payload
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, body_bytes = raw.partition(b"\r\n\r\n")
        status = int(head.split(None, 2)[1])
        return status, json.loads(body_bytes)

    async def http_round_trip() -> None:
        with serve_http(port=0) as server:  # port 0: pick a free port
            host, port = server.host, server.port
            code, sub = await http_json(
                "POST", host, port, "/v1/jobs",
                {"integrand": "3D-f4", "rel_tol": 1e-3, "priority": 2},
            )
            job = sub["job_id"]
            print(f"  POST /v1/jobs -> {code} (job {job})")
            while True:  # poll until terminal
                _, status = await http_json(
                    "GET", host, port, f"/v1/jobs/{job}"
                )
                if status["status"] in ("done", "failed", "cancelled"):
                    break
                await asyncio.sleep(0.05)
            code, res = await http_json(
                "GET", host, port, f"/v1/jobs/{job}/result"
            )
            print(
                f"  GET /v1/jobs/{job}/result -> {code}: "
                f"estimate={res['result']['estimate']:.10f} "
                f"({res['result']['status']})"
            )
            _, metrics = await http_json("GET", host, port, "/metrics")
            print(
                f"  GET /metrics -> queue={metrics['service']['queued']}, "
                f"submitted={metrics['service']['submitted']}"
            )
        print("  server shut down cleanly")

    asyncio.run(http_round_trip())


if __name__ == "__main__":
    main()
