"""In-memory span recorder and the wrappers that feed it.

Spans are recorded only from the benchmark's side: :func:`install`
replaces public module and class attributes of ``repro`` with timing
wrappers, so no file of the library changes.  Each span keeps its name,
start, end, the span that caused it (its parent on the same thread) and
the id of the root span, which plays the part of a request identifier.
A span's *self time* is its duration minus the time its child spans
cover; summing self times per layer never counts a second twice.

The recorder is off until :func:`install` runs, so an untraced run pays
nothing.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """Thread-aware span recorder.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with exact numbers.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        #: finished spans: (id, parent id, trace id, name, start, end, self)
        self.spans: List[tuple] = []
        #: counters keyed by name, added to at span boundaries
        self.counts: Dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def begin(self, name: str) -> list:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        # frame: [id, name, start, child seconds, parent id, trace id]
        frame = [
            span_id, name, self.clock(), 0.0,
            parent[0] if parent else None,
            parent[5] if parent else span_id,
        ]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        """Close ``frame``; returns its duration."""
        end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame[2]
        if stack:
            stack[-1][3] += duration
        record = (
            frame[0], frame[4], frame[5], frame[1], frame[2], end,
            duration - frame[3],
        )
        with self._lock:
            self.spans.append(record)
        return duration

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def summary(self) -> Dict[str, dict]:
        """Per span name: count, total seconds, self seconds, durations."""
        out: Dict[str, dict] = {}
        with self._lock:
            spans = list(self.spans)
        for _, _, _, name, start, end, self_s in spans:
            entry = out.setdefault(
                name, {"n": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            entry["n"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
            entry["durations"].append(end - start)
        return out


def wrap(tracer: Tracer, name: str, fn: Callable,
         before: Optional[Callable] = None,
         after: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span called ``name``.

    A call nested directly in a span of the same name (an override that
    calls ``super()``) is not recorded twice.  ``before(*args)`` runs
    before the call and its value is handed to ``after(state, result,
    *args)``, which records counts.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.current() == name:
            return fn(*args, **kwargs)
        state = before(*args, **kwargs) if before is not None else None
        frame = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if after is not None:
            after(tracer, state, result, *args, **kwargs)
        return result

    traced.__wrapped_by_perfbench__ = True
    return traced


def _patch(owner, attr: str, tracer: Tracer, name: str, **hooks) -> None:
    fn = getattr(owner, attr)
    if getattr(fn, "__wrapped_by_perfbench__", False):
        return
    setattr(owner, attr, wrap(tracer, name, fn, **hooks))


# -- counts recorded at the layer boundaries ---------------------------------
def _integrand_after(tracer, state, result, integrand, points, *a, **k):
    tracer.count("integrands.evals", len(points))


def _chunk_after(tracer, state, result, bk, dr, integrand, c, h, *a, **k):
    mc, n = c.shape
    evals = mc * dr.points.shape[0]
    tracer.count("cubature.chunks")
    tracer.count("cubature.evals", evals)
    # the (mc, p, n) float64 point tensor the chunk materialises
    tracer.count("cubature.point_bytes_computed", evals * n * 8)


def _complete_before(run, *a, **k):
    return run.store.size


def _complete_after(tracer, m, done, run, *a, **k):
    tracer.count("core.iterations")
    tracer.count("core.regions", m)
    survivors = 0 if done else run.store.size // 2
    tracer.count("core.committed", m - survivors)


def _round_before(sched, only=None, *a, **k):
    live = sched.live
    if only is not None:
        chosen = set(only)
        live = [i for i in live if i in chosen]
    return len(live), sched.stats.chunks_submitted


def _round_after(tracer, state, result, sched, *a, **k):
    live, chunks_before = state
    tracer.count("batch.rounds")
    tracer.count("batch.live", live)
    tracer.count("batch.chunks", sched.stats.chunks_submitted - chunks_before)


def install(tracer: Tracer, http: bool = False) -> None:
    """Wrap every traced layer boundary of the imported ``repro`` package.

    Layer spans (name prefix = layer):

    * ``integrands.call`` — :class:`repro.integrands.base.Integrand`
      ``__call__``;
    * ``cubature.compute_chunk`` — the evaluate sweep's per-chunk kernel;
    * ``backends.run_chunks`` — chunk execution on every host backend;
    * ``core.*`` — PAGANI start, integrate, prepare/complete phases,
      two-level errors, classification, filter and split;
    * ``batch.round`` — one batch scheduler round;
    * ``service.cache.get``/``put`` and ``service.store.get`` — the
      result cache tiers;
    * ``service.http.post``/``get`` — one HTTP request handler call
      (only with ``http=True``, inside the server process).
    """
    import repro.core.pagani as pagani
    import repro.cubature.evaluation as evaluation
    from repro.backends.base import ArrayBackend
    from repro.backends.process import ProcessNumpyBackend
    from repro.backends.threaded import ThreadedNumpyBackend
    from repro.batch.scheduler import BatchScheduler
    from repro.core.regions import RegionStore
    from repro.integrands.base import Integrand
    from repro.service.cache import ResultCache
    from repro.service.store import DurableResultStore, TieredResultCache

    _patch(Integrand, "__call__", tracer, "integrands.call",
           after=_integrand_after)
    _patch(evaluation, "compute_chunk", tracer, "cubature.compute_chunk",
           after=_chunk_after)
    for cls in (ArrayBackend, ThreadedNumpyBackend, ProcessNumpyBackend):
        # each override is its own attribute; wrap() skips the nested
        # super() call so a span is never counted twice
        if "run_chunks" in vars(cls):
            _patch(cls, "run_chunks", tracer, "backends.run_chunks")
    _patch(pagani.PaganiIntegrator, "integrate", tracer, "core.integrate")
    _patch(pagani.PaganiRun, "__init__", tracer, "core.start")
    _patch(pagani.PaganiRun, "prepare_evaluation", tracer, "core.prepare")
    _patch(pagani.PaganiRun, "complete_iteration", tracer, "core.complete",
           before=_complete_before, after=_complete_after)
    _patch(pagani, "two_level_errors", tracer, "core.two_level")
    _patch(pagani, "rel_err_classify", tracer, "core.classify")
    _patch(pagani, "threshold_classify", tracer, "core.classify")
    _patch(RegionStore, "filter", tracer, "core.filter_split")
    _patch(RegionStore, "split", tracer, "core.filter_split")
    _patch(BatchScheduler, "run_round", tracer, "batch.round",
           before=_round_before, after=_round_after)
    for cls in (ResultCache, TieredResultCache):
        _patch(cls, "get", tracer, "service.cache.get")
        _patch(cls, "put", tracer, "service.cache.put")
    _patch(DurableResultStore, "get", tracer, "service.store.get")
    if http:
        from repro.service.http.server import _Handler

        _patch(_Handler, "do_POST", tracer, "service.http.post")
        _patch(_Handler, "do_GET", tracer, "service.http.get")


def snapshot(tracer: Tracer) -> dict:
    """Mergeable per-name totals plus the batch round durations."""
    summary = tracer.summary()
    return {
        "spans": {
            name: {k: entry[k] for k in ("n", "total_s", "self_s")}
            for name, entry in summary.items()
        },
        "counts": dict(tracer.counts),
        "round_s": summary.get("batch.round", {}).get("durations", []),
    }


def merge(snapshots: List[dict]) -> dict:
    """Sum several :func:`snapshot` results (one per process or run)."""
    out: dict = {"spans": {}, "counts": {}, "round_s": []}
    for snap in snapshots:
        for name, entry in snap["spans"].items():
            acc = out["spans"].setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for name, value in snap["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0.0) + value
        out["round_s"].extend(snap["round_s"])
    return out


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: its first name component, except the
    HTTP handler spans, which form ``service.http``."""
    if span_name.startswith("service.http."):
        return "service.http"
    return span_name.split(".", 1)[0]


def self_by_layer(snap: dict) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, entry in snap["spans"].items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + entry["self_s"]
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Write every recorded span as one JSON line."""
    import json

    with open(path, "w") as fh:
        for span_id, parent, trace_id, name, start, end, self_s in tracer.spans:
            fh.write(json.dumps({
                "id": span_id, "parent": parent, "trace": trace_id,
                "name": name, "start": start, "end": end, "self_s": self_s,
            }) + "\n")
