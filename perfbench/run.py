"""The repository benchmark: time to solution and HTTP job latency.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve_suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run of one workload measures for about ``--seconds`` seconds, checks
every answer, prints each metric by name and unit, writes a result file
under ``perfbench/out/`` and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the run is repeated with span wrappers installed and
the metrics are the per-layer ones.  ``--workload all`` runs every
workload untraced and traced and reports the tracing overhead.  See
``perfbench/README.md`` for the workloads, metrics and layers.

The program under test is built from ``src/`` of the checkout the script
sits in; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

import env  # noqa: E402
import loadgen  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: metric names and units, defined once in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: further end-to-end figures, reported where the workload defines them
EXTRA_UNITS = {
    "solve_s": "s",
    "meval_per_s": "Meval/s",
    "latency_p90_s": "s",
    "latency_p99_s": "s",
    "failed_ratio": "ratio",
    "latency_n": "count",
    "send_lag_p99_s": "s",
}

CHILD_TIMEOUT_S = 90.0

#: cold starts whose median is a run's ``setup_s``
SETUP_STARTS = 7


class BenchmarkError(RuntimeError):
    """A run could not produce a result (child died, no server...)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------
class Child:
    """A benchmark-owned child interpreter speaking JSON lines on stdout."""

    def __init__(self, args: List[str]):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def expect_json(self, timeout: float = CHILD_TIMEOUT_S) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchmarkError(f"no reply from {self.proc.args[1]}")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise BenchmarkError(
                    f"{self.proc.args[1]} exited with {self.proc.wait()}"
                )
            try:
                value = json.loads(line)
            except ValueError:
                continue
            if isinstance(value, dict):
                return value

    def send(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        """Stop the child (if still running) and wait for it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


class Server:
    """The HTTP server child; ``setup_s`` is interpreter start to /healthz ok."""

    def __init__(self, cache_dir: Path, trace: int, spans_out: Optional[Path] = None):
        t0 = time.perf_counter()
        args = [str(BENCH / "server.py"), "--cache-dir", str(cache_dir),
                "--trace", str(trace)]
        if spans_out is not None:
            args += ["--spans-out", str(spans_out)]
        self.child = Child(args)
        try:
            self.port = self.child.expect_json(timeout=120)["port"]
            self.host = "127.0.0.1"
            health = self.get("/healthz")
            if not health.get("ok"):
                raise BenchmarkError(f"server unhealthy: {health}")
        except BaseException:
            self.child.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def get(self, path: str) -> dict:
        status, data = loadgen.request(self.host, self.port, "GET", path)
        if status != 200:
            raise BenchmarkError(f"GET {path} answered {status}")
        return json.loads(data)

    def stop(self) -> dict:
        try:
            self.child.send("stop")
            return self.child.expect_json(timeout=60)
        finally:
            self.child.close()


# ---------------------------------------------------------------------------
# closed-loop workloads: solve_suite, sweep_auto
# ---------------------------------------------------------------------------
def cold_start() -> float:
    """Seconds from a fresh interpreter to the worker's ready line."""
    t0 = time.perf_counter()
    child = Child([str(BENCH / "compute_worker.py"), "--workload", "setup"])
    try:
        child.expect_json(timeout=120)
        return time.perf_counter() - t0
    finally:
        child.close()


def run_closed(name: str, seed: int, seconds: float, trace: int, tag: str) -> dict:
    setups, reports = [], []
    for rep in range(workloads.repetitions(name, seconds)):
        args = [str(BENCH / "compute_worker.py"), "--workload", name,
                "--seed", str(seed * 1009 + rep), "--trace", str(trace)]
        if trace:
            args += ["--spans-out", str(OUT / f"spans-{tag}-rep{rep}.jsonl")]
        t0 = time.perf_counter()
        child = Child(args)
        try:
            child.expect_json(timeout=120)
            setups.append(time.perf_counter() - t0)
            report = child.expect_json()
        finally:
            child.close()
        if child.proc.returncode != 0:
            raise BenchmarkError(f"{name} repetition exited {child.proc.returncode}")
        reports.append(report)
    # Every repetition started cold; more bare starts of the same kind
    # make the set-up median steady.
    while len(setups) < SETUP_STARTS:
        setups.append(cold_start())

    calls = [c for r in reports for c in r["calls"]]
    # Each job's median over the repetitions, combined by geometric mean
    # so that every job of the workload counts, not the middle of the
    # gap between a fast and a slow one.
    by_job: Dict[str, List[float]] = {}
    for c in calls:
        by_job.setdefault(c["key"], []).append(c["seconds"])
    latencies = [c["seconds"] for c in calls]
    limit = workloads.CLOSED_LATENCY_LIMIT_S[name]
    good = sum(1 for c in calls if c["converged"] and c["answer_ok"] and c["seconds"] <= limit)
    failed = sum(1 for c in calls if not (c["converged"] and c["answer_ok"]))
    wrong = sum(1 for c in calls if not c["answer_ok"])
    total_s = sum(latencies)
    metrics = {
        "setup_s": stats.median(setups),
        "latency_p50_s": stats.geomean(stats.median(v) for v in by_job.values()),
        "goodput_jobs_per_s": good / total_s,
        "peak_rss_mb": stats.median(r["peak_rss_mb"] for r in reports),
    }
    extra = {
        "solve_s": stats.median(sum(c["seconds"] for c in r["calls"]) for r in reports),
        "meval_per_s": sum(c["neval"] for c in calls) / 1e6 / total_s,
        "failed_ratio": failed / len(calls),
        "latency_n": len(latencies),
    }
    result = {
        "attempted": len(calls), "failed": failed, "wrong": wrong,
        "metrics": metrics, "extra": extra, "setups": setups,
        "calls": calls, "repetitions": len(reports),
    }
    if trace:
        snap = tracing.merge([r["trace"] for r in reports])
        decisions: Dict[str, float] = {}
        for r in reports:
            for family, n in r["route_decisions"].items():
                decisions[family] = decisions.get(family, 0) + n
        per_call = {}
        for k in range(3):
            kth = [r["calls"][k]["seconds"] for r in reports if len(r["calls"]) > k]
            per_call[f"api.call{k + 1}_s"] = stats.median(kth)
        result["per_layer"] = per_layer(
            snap, len(calls), decisions=decisions, api_calls=per_call,
            traced=metrics,
        )
    return result


# ---------------------------------------------------------------------------
# open-loop HTTP workload: http_replay
# ---------------------------------------------------------------------------
def expected_payloads(jobs: List[workloads.Job]) -> List[dict]:
    """Fresh in-process ``integrate()`` answers for the warm set."""
    from repro import integrate
    from repro.integrands.catalog import named_integrand
    from repro.service.store import result_to_payload

    out = []
    for job in jobs:
        fn = named_integrand(job.integrand)
        out.append(result_to_payload(integrate(fn, fn.ndim, rel_tol=job.rel_tol)))
    return out


def _answer_ok(job: workloads.Job, payload: dict, expected: List[dict]) -> bool:
    result = payload["result"]
    ref = stats.reference_of(job.integrand)
    return (
        ref is not None
        and stats.within_own_error(result["estimate"], result["errorest"], ref)
        and stats.same_answer(payload["result_hex"], expected[job.warm])
    )


def _delta(after: dict, before: dict, *keys) -> float:
    """Change of a nested ``/metrics`` counter over the measured window."""
    for key in keys:
        after, before = after[key], before[key]
    return float(after - before)


def run_http(name: str, seed: int, seconds: float, trace: int, tag: str) -> dict:
    plan = workloads.replay_plan(seed, seconds)
    poll_s = workloads.REPLAY_POLL_S
    store = OUT / f"store-{tag}"
    shutil.rmtree(store, ignore_errors=True)

    # Prime the durable store, then restart so the run starts with a
    # cold LRU over a warm SQLite tier.
    server = Server(store, trace=0)
    try:
        primed = loadgen.run_closed_loop(server.host, server.port, plan.warm, poll_s)
    finally:
        server.stop()
    expected = expected_payloads(plan.warm)
    wrong = sum(
        1 for o, e in zip(primed, expected)
        if not (o.ok and stats.same_answer(o.payload["result_hex"], e))
    )
    # Set-up samples: cold starts on the primed store, the last of which
    # serves the measured run.
    setups = []
    for _ in range(SETUP_STARTS - 1):
        server = Server(store, trace=0)
        setups.append(server.setup_s)
        server.stop()

    spans_out = OUT / f"spans-{tag}-server.jsonl" if trace else None
    server = Server(store, trace=trace, spans_out=spans_out)
    setups.append(server.setup_s)
    try:
        before = server.get("/metrics")
        outcomes, t0 = loadgen.run_open_loop(
            server.host, server.port, plan.requests, poll_s
        )
        after = server.get("/metrics")
        job_list = server.get("/v1/jobs")["jobs"] if trace else []
    finally:
        report = server.stop()
    shutil.rmtree(store, ignore_errors=True)

    latencies, lags, polls = [], [], []
    good = failed = 0
    for o in outcomes:
        if o.send_lag is not None:
            lags.append(o.send_lag)
        polls.append(o.polls)
        ok = o.ok and o.payload["result"]["converged"]
        if o.ok and not _answer_ok(o.job, o.payload, expected):
            wrong += 1
            ok = False
        if not ok:
            failed += 1
            continue
        latency = o.done_at - (t0 + o.job.at)
        latencies.append(latency)
        if latency <= workloads.REPLAY_LATENCY_LIMIT_S:
            good += 1
    window = max((o.done_at for o in outcomes if o.done_at), default=t0 + seconds) - t0
    metrics = {
        "setup_s": stats.median(setups),
        "latency_p50_s": stats.median(latencies),
        "goodput_jobs_per_s": good / window,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    extra = dict(stats.latency_summary(latencies))
    extra.pop("latency_p50_s")
    extra["failed_ratio"] = failed / len(outcomes)
    # validity: a generator that sends late offers less than the rate
    extra["send_lag_p99_s"] = stats.percentile(lags, 99)
    result = {
        "attempted": len(outcomes), "failed": failed, "wrong": wrong,
        "metrics": metrics, "extra": extra, "setups": setups,
        "rate_per_s": workloads.REPLAY_RATE, "poll_interval_s": poll_s,
        "latency_limit_s": workloads.REPLAY_LATENCY_LIMIT_S,
        "errors": sorted({o.error for o in outcomes if o.error}),
        "jobs": [
            [o.job.integrand, o.job.rel_tol, o.job.at,
             o.payload["cache_hit"] if o.ok else None,
             o.done_at - (t0 + o.job.at) if o.done_at else None, o.error]
            for o in outcomes
        ],
    }
    if trace:
        ids = {o.job_id for o in outcomes if o.job_id is not None}
        waits = [j["queue_seconds"] for j in job_list
                 if j["job_id"] in ids and j["queue_seconds"] is not None]
        svc_after, svc_before = after["service"], before["service"]
        lookups = _delta(svc_after, svc_before, "cache", "hits") + _delta(
            svc_after, svc_before, "cache", "misses")
        durable = _delta(svc_after, svc_before, "cache", "durable", "hits") + _delta(
            svc_after, svc_before, "cache", "durable", "misses")
        service = {
            "service.queue_wait_s_p50": stats.percentile(waits, 50),
            "service.queue_wait_s_p90": stats.percentile(waits, 90),
            "service.cache.hit_ratio": (
                _delta(svc_after, svc_before, "cache", "memory_hits") / lookups
                if lookups else 0.0
            ),
            "service.store.hit_ratio": (
                _delta(svc_after, svc_before, "cache", "durable", "hits") / durable
                if durable else 0.0
            ),
            "service.coalesced": _delta(svc_after, svc_before, "coalesced"),
            "service.http.requests": _delta(after, before, "http", "requests") / len(outcomes),
            "service.http.rejected": _delta(after, before, "http", "rejected"),
            "loadgen.send_lag_p99_s": stats.percentile(lags, 99),
            "loadgen.polls_per_job": sum(polls) / len(outcomes),
        }
        result["per_layer"] = per_layer(
            report["trace"], len(outcomes), service=service, traced=metrics,
        )
    return result


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
#: layers whose self times should add up to the API call time
COMPUTE_LAYERS = ("cubature", "integrands", "core", "backends", "batch")

ROUTE_FAMILIES = ("numpy", "process")

def per_layer(snap: dict, jobs: int, decisions=None, api_calls=None,
              service=None, traced=None) -> Dict[str, float]:
    """Per-layer metrics from merged span totals.

    Times and counts are per job of the workload (one API call or one
    HTTP job); ratios and percentiles are as measured.
    """
    spans, counts = snap["spans"], snap["counts"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    rounds = counts.get("batch.rounds", 0.0)
    layer_self = tracing.self_by_layer(snap)
    out = {
        "integrands.call_s": total("integrands.call") / jobs,
        "integrands.s_per_meval": ratio(
            total("integrands.call"), counts.get("integrands.evals", 0.0) / 1e6),
        "cubature.compute_chunk_self_s": own("cubature.compute_chunk") / jobs,
        "cubature.chunks": counts.get("cubature.chunks", 0.0) / jobs,
        "cubature.evals": counts.get("cubature.evals", 0.0) / jobs,
        "cubature.point_bytes_computed":
            counts.get("cubature.point_bytes_computed", 0.0) / jobs,
        "core.iterations": counts.get("core.iterations", 0.0) / jobs,
        "core.regions": counts.get("core.regions", 0.0) / jobs,
        "core.prepare_s": total("core.prepare") / jobs,
        "core.complete_self_s": own("core.complete") / jobs,
        "core.two_level_s": total("core.two_level") / jobs,
        "core.classify_s": total("core.classify") / jobs,
        "core.filter_split_s": total("core.filter_split") / jobs,
        "core.finished_ratio": ratio(
            counts.get("core.committed", 0.0), counts.get("core.regions", 0.0)),
        "batch.rounds": rounds / jobs,
        "batch.round_s_p50": stats.percentile(snap["round_s"], 50),
        "batch.round_s_p90": stats.percentile(snap["round_s"], 90),
        "batch.live_per_round": ratio(counts.get("batch.live", 0.0), rounds),
        "batch.chunks_per_round": ratio(counts.get("batch.chunks", 0.0), rounds),
        "backends.run_chunks_self_s": own("backends.run_chunks") / jobs,
        "api.call_s": total("api.call") / jobs,
        "service.cache.get_s": total("service.cache.get") / jobs,
        "service.cache.put_s": total("service.cache.put") / jobs,
        "service.http.post_s": total("service.http.post") / jobs,
        "service.http.get_s": total("service.http.get") / jobs,
        "trace.self_coverage_ratio": ratio(
            sum(layer_self.get(layer, 0.0) for layer in COMPUTE_LAYERS),
            total("api.call")),
    }
    for family in ROUTE_FAMILIES:
        out[f"backends.route_decisions.{family}"] = (decisions or {}).get(family, 0) / jobs
    out.update(api_calls or {})
    out.update(service or {})
    for name in ("latency_p50_s", "goodput_jobs_per_s"):
        out[f"traced.{name}"] = (traced or {}).get(name, 0.0)
    # closed loops have no service metrics, open loops no API calls
    for name in (*(f"api.call{k}_s" for k in (1, 2, 3)),
                 "service.queue_wait_s_p50", "service.queue_wait_s_p90",
                 "service.cache.hit_ratio", "service.store.hit_ratio",
                 "service.coalesced", "service.http.requests",
                 "service.http.rejected", "loadgen.send_lag_p99_s",
                 "loadgen.polls_per_job"):
        out.setdefault(name, 0.0)
    missing = set(PER_LAYER_UNITS) - set(out)
    if missing:
        raise BenchmarkError(f"BENCHMARK.json names unmeasured metrics {sorted(missing)}")
    return {name: float(out[name]) for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    tag = f"{name}-s{seed}-t{trace}"
    runner = run_http if name == "http_replay" else run_closed
    return runner(name, seed, seconds, trace, tag)


def _print_metrics(name: str, values: Dict[str, float], units: Dict[str, str]) -> None:
    for key, value in values.items():
        print(f"  {name:<12} {key:<32} {value:>14.6g} {units.get(key, '')}")


def _result_line(result: dict, trace: int) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in result["metrics"].items()}
    return {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    record = {"env": env.capture(ROOT), "seed": args.seed,
              "seconds": args.seconds, "runs": {}, "tracing_overhead": {}}
    steal_before = env.cpu_steal_s()
    try:
        for name in names:
            for trace in traces:
                result = run_workload(name, args.seed, args.seconds, trace)
                record["runs"][f"{name}/trace{trace}"] = result
                print(f"{name} (trace {trace}): {result['attempted']} jobs, "
                      f"{result['failed']} failed, {result['wrong']} wrong")
                _print_metrics(name, result["metrics"], END_TO_END_UNITS)
                _print_metrics(name, result["extra"], EXTRA_UNITS)
                if trace:
                    _print_metrics(name, result["per_layer"], PER_LAYER_UNITS)
            if len(traces) == 2:
                plain = record["runs"][f"{name}/trace0"]["metrics"]
                traced = record["runs"][f"{name}/trace1"]["metrics"]
                overhead = {k: traced[k] - plain[k]
                            for k in ("latency_p50_s", "goodput_jobs_per_s")}
                record["tracing_overhead"][name] = overhead
                print(f"{name} tracing overhead (traced - untraced):")
                _print_metrics(name, overhead, END_TO_END_UNITS)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    steal_after = env.cpu_steal_s()
    if steal_before is not None and steal_after is not None:
        record["env"]["cpu_steal_s"] = steal_after - steal_before
        print(f"host CPU steal during the run: {steal_after - steal_before:.2f} s")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    runs = list(record["runs"].values())
    if args.workload == "all":
        line = {
            "correct": all(r["wrong"] == 0 for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                f"{key.replace('/trace0', '')}.{m}": {"value": v, "unit": END_TO_END_UNITS[m]}
                for key, r in record["runs"].items() if key.endswith("/trace0")
                for m, v in r["metrics"].items()
            },
        }
    else:
        line = _result_line(runs[0], args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
