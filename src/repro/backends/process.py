"""Multi-process chunked NumPy backend: real multi-core without the GIL.

The ``threaded`` backend relies on NumPy releasing the GIL inside large
ufunc/matmul calls; with the small cache-sized chunks the batch layer
prefers, a meaningful share of each chunk is pure-Python glue that still
serialises, capping the speedup well below the core count.  This backend
executes the evaluate-sweep chunks in a persistent pool of **worker
processes** instead, so every chunk's Python glue runs concurrently too.

How a chunk travels
-------------------
Chunk thunks are closures over backend arrays and the integrand — not
picklable.  The evaluate sweep therefore attaches a *picklable chunk
spec* to every task when this backend is active (see
:class:`~repro.cubature.evaluation.ChunkTask`): the integrand reference
(a catalogue spec string like ``"8d-f7"``, or the pickled callable), the
dimensionality, the error model, and the chunk's center/halfwidth
slices.  A worker rebuilds the integrand and the Genz–Malik rule tensors
once per process (both cached — ``named_integrand`` + ``get_rule`` /
``RULE_CACHE``), evaluates the chunk with the **same**
:func:`~repro.cubature.evaluation.compute_chunk` arithmetic the
in-process path uses, and returns the chunk's ``(estimate, error,
axis)`` arrays.  The parent stitches results in deterministic chunk
order, so results are **bit-identical** to the NumPy reference at any
chunk grain — the conformance suite asserts it.

The transport
-------------
Every shipped chunk crosses the executor's pickle channel: the submitted
spec carries the integrand reference and the chunk's center/halfwidth
arrays, and the ``(estimate, error, axis)`` vectors come back the same
way.  Pickling moves float64/int64 bits verbatim, so the transport
cannot perturb a single ULP, and it needs nothing from the host beyond
the pool itself (no ``/dev/shm``).  The payload is small next to the
work: catalogue integrands ship as spec strings, module-level callables
pickle by reference to tens of bytes, and a 5D chunk at the fused grain
is about 180 KB in and 54 KB out against milliseconds of worker compute.

Fallbacks and failure
---------------------
* An integrand that cannot be shipped (a lambda/closure without a
  catalogue spec) degrades gracefully: its chunks run in-process,
  serially, with unchanged numerics.
* A worker that *raises* propagates the exception to the caller exactly
  like a serial thunk would (the batch scheduler's per-member isolation
  applies unchanged).
* A worker that *dies* (segfault, ``os._exit``) breaks the pool;
  the backend discards the broken pool — the next submission builds a
  fresh one — and surfaces :class:`WorkerCrashError` for the affected
  chunks.  One crashing job cannot poison the backend for subsequent
  integrations.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends.base import BackendUnavailableError, resolve_workers
from repro.backends.numpy_backend import NumpyBackend


class WorkerCrashError(RuntimeError):
    """A pool worker died mid-chunk (crash, not an ordinary exception).

    The backend has already discarded the broken pool; retrying the
    integration builds a fresh one.  The original executor error is
    chained as ``__cause__``.
    """


# ---------------------------------------------------------------------------
# Availability probe (cached).
# ---------------------------------------------------------------------------
_POOL_PROBE: Optional[Tuple[bool, Optional[str]]] = None


def _probe_process_pool() -> Tuple[bool, Optional[str]]:
    """(available, reason-if-not): can this host build mp primitives?

    An import probe is not enough — on semaphore-less sandboxes
    ``multiprocessing.synchronize`` imports fine and pool creation
    explodes later inside ``run_chunks``.  Actually allocating (and
    releasing) one OS-level primitive answers the real question; the
    verdict is cached so the cost is paid once per process.
    """
    global _POOL_PROBE
    if _POOL_PROBE is None:
        try:
            import multiprocessing

            lock = multiprocessing.get_context().Lock()
            del lock
        except Exception as exc:  # ImportError, OSError, PermissionError...
            _POOL_PROBE = (False, f"{type(exc).__name__}: {exc}")
        else:
            _POOL_PROBE = (True, None)
    return _POOL_PROBE


def process_pool_available() -> bool:
    """Whether this host can build a process pool (cached real probe)."""
    return _probe_process_pool()[0]


# ---------------------------------------------------------------------------
# Worker-process side.  Everything below runs inside pool workers; the
# per-process caches persist across chunks, so an integrand / rule set
# is rebuilt once per worker, not once per chunk.
# ---------------------------------------------------------------------------
_worker_numpy_backend: Optional[NumpyBackend] = None
_worker_integrands: Dict[Any, Callable] = {}
#: the worker's chunk temporaries, reused by every chunk it runs
_worker_scratch = None


def _worker_backend() -> NumpyBackend:
    global _worker_numpy_backend
    if _worker_numpy_backend is None:
        _worker_numpy_backend = NumpyBackend()
    return _worker_numpy_backend


def _resolve_worker_integrand(ref: Tuple[str, Any]) -> Callable:
    kind, value = ref
    if kind == "spec":
        key = ("spec", value)
    else:
        # content-addressed: same digest == same pickled callable
        key = ("pickle", hashlib.sha256(value).digest())
    fn = _worker_integrands.get(key)
    if fn is None:
        if kind == "spec":
            from repro.integrands.catalog import named_integrand

            fn = named_integrand(value)
        else:
            fn = pickle.loads(value)
        _worker_integrands[key] = fn
    return fn


def _eval_chunk_in_worker(spec: Dict[str, Any]):
    """Evaluate one pickled chunk spec; returns ``(estimate, error, axis)``.

    The returned arrays are views into the worker's one scratch.  That is
    safe: the pool's worker loop pickles the reply onto its result queue
    before it takes the next task, so no chunk overwrites a reply that
    has not been sent yet.
    """
    global _worker_scratch
    from repro.cubature.evaluation import SweepScratch, compute_chunk
    from repro.cubature.rules import RULE_CACHE, get_rule

    if _worker_scratch is None:
        _worker_scratch = SweepScratch()
    bk = _worker_backend()
    integrand = _resolve_worker_integrand(spec["integrand"])
    dr = RULE_CACHE.device_rule(get_rule(spec["ndim"]), bk)
    return compute_chunk(
        bk, dr, integrand, spec["centers"], spec["halfwidths"],
        spec["error_model"], _worker_scratch,
    )


# ---------------------------------------------------------------------------
# Parent-process side: the backend.
# ---------------------------------------------------------------------------


class ProcessNumpyBackend(NumpyBackend):
    """Chunk-parallel NumPy execution on a persistent process pool.

    Parameters
    ----------
    num_workers:
        Pool width; ``None`` means one worker per host CPU (capped at
        32).  Selectable from the string spec ``"process:<N>"``.

    The pool is built lazily on the first parallel submission (or by
    :meth:`start`) and reused for the backend's lifetime (workers keep
    their integrand/rule caches warm); :meth:`close` shuts it down
    explicitly.
    """

    name = "process"

    #: the batch layer's fused grain for this backend.  Larger than the
    #: threaded backend's cache-sized 128 Ki floats: each chunk pays an
    #: IPC round-trip (dispatch + result collection), so the grain must
    #: amortise it while still yielding enough independent chunks per
    #: fused submission to fill every worker.
    preferred_batch_chunk_budget = 1_048_576

    #: ask the evaluate sweep to attach picklable chunk specs
    wants_chunk_specs = True
    concurrent_chunks = True

    def __init__(self, num_workers: Optional[int] = None):
        available, reason = _probe_process_pool()
        if not available:
            raise BackendUnavailableError(
                "process backend unavailable: this host cannot create "
                f"multiprocessing primitives ({reason})"
            )
        self.num_workers = resolve_workers(num_workers)
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.num_workers)
        return self._pool

    def start(self) -> None:
        """Build the pool now and wait until every worker answers, so the
        first parallel sweep does not pay process start-up (benchmarks
        call this outside their timed region).  No-op at width 1."""
        if self.num_workers > 1:
            pool = self._ensure_pool()
            for fut in [pool.submit(os.getpid) for _ in range(self.num_workers)]:
                fut.result()

    def _discard_pool(self) -> None:
        """Drop a broken pool without waiting; next use builds a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    def run_chunks(self, tasks: Sequence[Callable[[], None]]) -> None:
        remote = [t for t in tasks if getattr(t, "remote_spec", None)]
        if len(remote) <= 1 or self.num_workers == 1:
            # Nothing to parallelise across processes (unshippable
            # integrand, single chunk, or width-1 pool): the in-process
            # thunks compute the same bits serially.
            for task in tasks:
                task()
            return

        pool = self._ensure_pool()
        try:
            submissions = [
                (t, pool.submit(_eval_chunk_in_worker, t.remote_spec))
                for t in remote
            ]
        except RuntimeError as exc:
            # Pool already shut down under us (close() raced a submit).
            self._discard_pool()
            raise WorkerCrashError("process pool unusable") from exc

        # Overlap: the parent evaluates the unshippable chunks while the
        # workers chew on the shipped ones.
        errs: List[BaseException] = []
        for task in tasks:
            if getattr(task, "remote_spec", None):
                continue
            try:
                task()
            except Exception as exc:
                errs.append(exc)

        # Stitch in deterministic chunk order (the submission order).  A
        # worker exception is delivered through the task's
        # complete_remote hook so it propagates — or is recorded by the
        # batch scheduler's per-member guard — exactly like a serial
        # thunk raising.
        broken = False
        for task, fut in submissions:
            error = fut.exception()
            if isinstance(error, BrokenExecutor):
                broken = True
                error = WorkerCrashError(
                    "a process-backend worker died while evaluating a "
                    "chunk; the pool was reset"
                )
                error.__cause__ = fut.exception()
            try:
                if error is not None:
                    task.complete_remote(error=error)
                else:
                    task.complete_remote(result=fut.result())
            except Exception as exc:
                errs.append(exc)
        if broken:
            self._discard_pool()
        if errs:
            raise errs[0]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (tests/benchmark hygiene; optional —
        a dropped backend's pool shuts down when it is collected)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ProcessNumpyBackend workers={self.num_workers}>"
