"""The integration service: queue → cache → sharded weighted rotations.

:class:`IntegrationService` turns the batch runner into a traffic-serving
system.  ``shards`` worker threads (one by default) each drive their own
long-lived :class:`~repro.batch.BatchScheduler` rotation pinned to their
own execution-backend instance, all pulling from one shared
:class:`~repro.service.queue.JobQueue` and one shared
:class:`~repro.service.cache.ResultCache`:

* **admission** — whenever a shard has fewer than ``max_concurrent``
  live runs, it pops the most-urgent queued job (see
  :mod:`repro.service.queue`).  A job whose fingerprint is cached
  completes instantly with a bit-identical replay; a job whose
  fingerprint matches an *in-flight* run — on any shard — coalesces onto
  it (no second run, no extra slot — the classic cache-stampede fix);
  everything else starts a fresh :class:`~repro.core.pagani.PaganiRun`
  and joins the admitting shard's rotation.
* **weighted rotation** — each scheduler round serves the live members
  whose accumulated credit reaches the round threshold (credit grows by
  the job's priority), so a priority-``2p`` job is served iterations
  twice as often as a priority-``p`` one and, for equal work, finishes
  first.  Every round still fuses the served members' evaluation chunks
  into one backend submission.
* **completion** — converged runs leave their rotation, populate the
  shared cache, and resolve their handle (and any coalesced followers).

Sharding (``shards=K``) multiplies the rotations, not the semantics:
every shard resolves the *same* backend spec, so fingerprints — which
hash the backend name and chunk grain — are shard-independent and cache
hits stay bit-for-bit regardless of which shard computed the entry.
Pair ``shards=K`` with a per-shard parallel backend (``"process"``)
only when the host has cores to spare; on a small host prefer one shard
with one wide pool.

Thread model: clients call ``submit``/``cancel``/``result`` from any
thread; scheduler and cache-write activity happens on the shard worker
threads, and every structure shared across shards (the in-flight
fingerprint map, member/follower tables, counters) is only mutated under
the service condition lock.  The service survives integrand failures
(the failing job's handle carries the exception; the rotation continues)
and is explicitly shut down with :meth:`IntegrationService.shutdown` or
a ``with`` block.
"""

from __future__ import annotations

import copy
import threading
from concurrent.futures import CancelledError
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import ArrayBackend, BackendLike, get_backend, new_backend
from repro.batch import BatchMemberError, BatchScheduler
from repro.core.pagani import PaganiConfig, PaganiIntegrator
from repro.errors import ConfigurationError
from repro.service.cache import ResultCache, job_fingerprint
from repro.service.escalation import EscalationPolicy
from repro.service.jobs import (
    JobHandle,
    JobSpec,
    JobStatus,
    ResolvedJob,
)
from repro.service.queue import JobQueue


class ServiceClosedError(RuntimeError):
    """Submission after :meth:`IntegrationService.shutdown`."""


class _Rotation:
    """A shard's scheduler set, multiplexed over per-backend schedulers.

    A :class:`~repro.batch.BatchScheduler` only accepts runs built on
    its own backend instance, so a shard that routes jobs to different
    backends keeps one scheduler per backend and hands out shard-unique
    member ids.  With a single backend (the pinned-service default) this
    degenerates to exactly one scheduler — the pre-routing behaviour.

    Owned by one shard worker thread; never shared across threads.
    """

    def __init__(self) -> None:
        self._schedulers: Dict[int, BatchScheduler] = {}  # id(backend) ->
        self._by_member: Dict[int, Tuple[BatchScheduler, int]] = {}
        self._next_member = 0

    @property
    def members(self):
        """All schedulers' member slots (retired tombstones included)."""
        return [
            run
            for sched in self._schedulers.values()
            for run in sched.members
        ]

    def add(self, run) -> int:
        """Enrol a run with the scheduler of its backend; shard-unique id."""
        key = id(run.backend)
        sched = self._schedulers.get(key)
        if sched is None:
            sched = BatchScheduler(backend=run.backend)
            self._schedulers[key] = sched
        index = sched.add(run)
        member_id = self._next_member
        self._next_member += 1
        self._by_member[member_id] = (sched, index)
        return member_id

    def member(self, member_id: int):
        sched, index = self._by_member[member_id]
        return sched.member(index)

    def abandon_member(self, member_id: int) -> None:
        sched, index = self._by_member[member_id]
        sched.abandon_member(index)

    def retire_member(self, member_id: int) -> None:
        sched, index = self._by_member.pop(member_id)
        sched.retire_member(index)

    def run_round(self, only: Sequence[int]) -> Dict[int, BaseException]:
        """One fused round per involved scheduler; failures by member id."""
        by_sched: Dict[int, Tuple[BatchScheduler, List[int]]] = {}
        for member_id in only:
            sched, _ = self._by_member[member_id]
            by_sched.setdefault(id(sched), (sched, []))[1].append(member_id)
        failures: Dict[int, BaseException] = {}
        for sched, member_ids in by_sched.values():
            reverse = {
                self._by_member[m][1]: m for m in member_ids
            }
            try:
                sched.run_round(only=list(reverse))
            except BatchMemberError as exc:
                for index, error in exc.failures.items():
                    failures[reverse[index]] = error
        return failures


class _Shard:
    """One worker rotation: schedulers + backend instances for one worker.

    All tables are keyed by the shard-local rotation member id.
    ``members``/``followers``/``weights``/``member_fp`` are read and
    written across threads (stats, cross-shard coalescing) and are only
    touched under the service condition lock; ``credits``/``resolved``
    are private to the owning worker thread.

    ``backend`` is the shard's *default* instance (every job, absent
    routing); ``extras`` caches shard-owned instances for routed /
    per-job-override backend specs, so repeat decisions reuse pools.
    """

    __slots__ = (
        "index", "backend", "scheduler", "members", "resolved", "weights",
        "credits", "followers", "member_fp", "extras", "thread",
    )

    def __init__(self, index: int, backend: ArrayBackend):
        self.index = index
        self.backend = backend
        self.scheduler = _Rotation()
        self.members: Dict[int, JobHandle] = {}
        self.resolved: Dict[int, ResolvedJob] = {}
        self.weights: Dict[int, int] = {}
        self.credits: Dict[int, float] = {}
        self.followers: Dict[int, List[JobHandle]] = {}
        self.member_fp: Dict[int, str] = {}
        #: spec string -> shard-owned backend instance (routing/override)
        self.extras: Dict[str, ArrayBackend] = {}
        self.thread: Optional[threading.Thread] = None


class IntegrationService:
    """Accepts, schedules, caches and executes integration jobs.

    Parameters
    ----------
    max_concurrent:
        Live runs admitted into *each shard's* rotation at once (so at
        most ``shards * max_concurrent`` runs are live).  Queued jobs
        wait in priority order for a slot; cache hits and coalesced jobs
        do not consume slots.
    backend:
        Execution backend for every run (spec or instance).  With
        ``shards > 1`` a *spec string* gives every shard its own fresh
        backend instance (its own pool — this is what lets shards
        execute truly concurrently); a shared :class:`ArrayBackend`
        instance is honoured but serialises the shards on one pool.
        ``"auto"`` enables per-job routing: every admitted job is scored
        by a :class:`~repro.backends.routing.BackendRouter` (a fixed
        cost model over the job's first-sweep evaluations, the pool
        width and pool availability — no feedback from earlier jobs, so
        the same job always routes, and fingerprints, the same way) and
        runs on the cheapest adequate backend; its fingerprint records
        the backend it actually ran on.  A job's own ``JobSpec.backend``
        always wins over both the pinned spec and the router.
    shards:
        Number of worker rotations (default 1 — the pre-sharding
        behaviour, byte for byte).  Each shard owns one
        :class:`~repro.batch.BatchScheduler` and one backend instance;
        all shards pull from the shared queue and cache.
    cache:
        ``True`` (default) builds a :class:`ResultCache` of
        ``cache_entries`` slots; ``False`` disables caching; an existing
        :class:`ResultCache` instance is shared (e.g. across services).
    cache_entries:
        LRU capacity when ``cache=True``.
    chunk_budget:
        Per-run evaluate-chunk grain.  Default: the backend's
        ``preferred_batch_chunk_budget`` when it declares one, else the
        reference budget — on the numpy backend service results are
        bit-identical to plain :func:`repro.api.integrate` calls.
    collect_traces:
        Keep per-iteration traces on results (off by default: a serving
        system should not grow unbounded trace lists into its cache).
    history_limit:
        Retain at most this many *terminal* handles in :meth:`jobs`
        (oldest pruned first; live handles are always retained and
        clients of course keep their own references).  ``None``
        (default) keeps everything — right for one-shot job lists;
        long-running services should set a bound so memory does not
        grow with total jobs served.  :meth:`stats` counts pruned jobs
        via lifetime counters either way.
    escalation:
        Service-default baseline-escalation policy — anything
        :meth:`~repro.service.escalation.EscalationPolicy.parse`
        accepts (``None`` = off, ``True``/``"default"``, a ladder
        descriptor, or a policy instance).  When a job's PAGANI run
        ends in ``MEMORY_EXHAUSTED`` (or trips the iteration watchdog)
        the worker re-runs it down the baseline ladder and resolves the
        handle with the escalated result — full per-stage history in
        ``result.escalation``, never relabeled as a converged PAGANI
        run.  Per-job ``JobSpec.escalation`` overrides the default
        (``"off"`` disables).  The effective policy descriptor enters
        the job's cache fingerprint, so escalated and native results
        never alias.

    Usage::

        with IntegrationService(max_concurrent=4) as svc:
            fast = svc.submit("5D-f4", rel_tol=1e-4, priority=4)
            slow = svc.submit("8D-f7", rel_tol=1e-4, priority=1)
            print(fast.result().estimate)
    """

    def __init__(
        self,
        max_concurrent: int = 4,
        backend: BackendLike = None,
        cache: Union[bool, ResultCache] = True,
        cache_entries: int = 256,
        chunk_budget: Optional[int] = None,
        collect_traces: bool = False,
        history_limit: Optional[int] = None,
        shards: int = 1,
        escalation=None,
    ):
        if max_concurrent < 1:
            raise ConfigurationError("max_concurrent must be >= 1")
        self.escalation = EscalationPolicy.parse(escalation)
        if shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if history_limit is not None and history_limit < 0:
            raise ConfigurationError("history_limit must be >= 0 or None")
        self.history_limit = history_limit
        self.max_concurrent = int(max_concurrent)
        self._chunk_budget_override = chunk_budget
        self._router = None
        if isinstance(backend, str) and backend == "auto":
            from repro.backends.routing import BackendRouter

            self._router = BackendRouter()
            # Routed shards still need a default instance: it anchors
            # the reference chunk budget and serves as the fallback when
            # a routed spec fails to build.  numpy is always adequate.
            backend = "numpy"
        if shards == 1 or isinstance(backend, ArrayBackend):
            # One shard keeps the classic shared-instance resolution; an
            # explicit instance is shared across shards by request.
            # Neither is owned by this service (shared/caller-owned), so
            # shutdown must not close them.
            shard_backends = [get_backend(backend)] * shards
            self._owned_backends: List[ArrayBackend] = []
        else:
            shard_backends = [new_backend(backend) for _ in range(shards)]
            self._owned_backends = list(shard_backends)
        self.backend = shard_backends[0]
        if isinstance(cache, ResultCache):
            self.cache: Optional[ResultCache] = cache
        elif cache:
            self.cache = ResultCache(max_entries=cache_entries)
        else:
            self.cache = None
        self.chunk_budget = PaganiConfig.resolve_chunk_budget(
            self.backend, chunk_budget
        )
        self.collect_traces = collect_traces

        self._queue = JobQueue()
        self._cond = threading.Condition()
        self._stopping = False
        self._worker_error: Optional[BaseException] = None

        #: fingerprint -> (shard, member index) of the in-flight primary
        self._inflight: Dict[str, Tuple[_Shard, int]] = {}
        self._rounds = 0
        self._coalesced = 0
        self._escalations = 0
        self._completion_counter = 0

        self._handles: List[JobHandle] = []
        self._pruned_by_status = {status.value: 0 for status in JobStatus}
        self._next_id = 0

        self._shards = [
            _Shard(i, bk) for i, bk in enumerate(shard_backends)
        ]
        for shard in self._shards:
            shard.thread = threading.Thread(
                target=self._run_loop, args=(shard,),
                name=f"integration-service-{shard.index}", daemon=True,
            )
            shard.thread.start()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        """Number of worker rotations serving the queue."""
        return len(self._shards)

    def submit(
        self,
        integrand: Union[str, Callable[[np.ndarray], np.ndarray]],
        ndim: Optional[int] = None,
        *,
        bounds: Optional[Sequence[Sequence[float]]] = None,
        rel_tol: float = 1e-3,
        abs_tol: float = 1e-20,
        priority: int = 1,
        label: Optional[str] = None,
        max_iterations: Optional[int] = None,
        relerr_filtering: Optional[bool] = None,
        backend: Optional[str] = None,
        escalation=None,
    ) -> JobHandle:
        """Enqueue one job; returns its future-like :class:`JobHandle`.

        ``backend`` is the per-job override spec (see
        :class:`~repro.service.jobs.JobSpec`); ``None`` defers to the
        service's backend or routing policy.  ``escalation`` likewise
        overrides the service's escalation policy for this job
        (``None`` inherits, ``"off"`` disables).
        """
        return self.submit_spec(
            JobSpec(
                integrand=integrand, ndim=ndim, bounds=bounds,
                rel_tol=rel_tol, abs_tol=abs_tol, priority=priority,
                label=label, max_iterations=max_iterations,
                relerr_filtering=relerr_filtering, backend=backend,
                escalation=escalation,
            )
        )

    def submit_spec(self, spec: JobSpec) -> JobHandle:
        """Enqueue a prepared :class:`JobSpec` (validated eagerly)."""
        spec.validate()
        with self._cond:
            if self._stopping:
                raise ServiceClosedError("service is shut down")
            if self._worker_error is not None:
                raise ServiceClosedError(
                    f"service worker died: {self._worker_error!r}"
                )
            handle = JobHandle(self._next_id, spec)
            self._next_id += 1
            self._handles.append(handle)
            self._queue.push(handle)
            self._cond.notify_all()
        return handle

    def submit_many(self, specs: Sequence[JobSpec]) -> List[JobHandle]:
        return [self.submit_spec(s) for s in specs]

    def jobs(self) -> List[JobHandle]:
        """Retained handles in submission order (all of them unless a
        ``history_limit`` pruned old terminal ones)."""
        with self._cond:
            return list(self._handles)

    def wait_all(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted job is terminal; False on timeout."""
        import time as _time

        deadline = None if timeout is None else _time.monotonic() + timeout
        for handle in self.jobs():
            remaining = (
                None if deadline is None else max(0.0, deadline - _time.monotonic())
            )
            if not handle.wait(remaining):
                return False
        return True

    def queue_depth(self) -> int:
        """Jobs currently waiting for a rotation slot (admission gate
        for front ends: compare against a bound before accepting)."""
        with self._cond:
            return len(self._queue)

    def health_problem(self) -> Optional[str]:
        """Why the service cannot serve jobs, or ``None`` while it can.

        Reports a worker that died (the rotation's last-resort handler
        failed every live job) and any shard thread that is no longer
        running — after :meth:`shutdown` that is every shard.
        """
        with self._cond:
            error = self._worker_error
        if error is not None:
            return f"service worker died: {error!r}"
        dead = [s.index for s in self._shards if not s.thread.is_alive()]
        if dead:
            return f"shard threads not running: {dead}"
        return None

    def stats(self) -> dict:
        """Snapshot of queue/rotation/cache counters.

        This is the one public observability surface: the HTTP
        ``/metrics`` endpoint, the CLI serve report and the asyncio
        wrapper all serve this dict verbatim, so additions here must be
        additive (existing keys keep their meaning).
        """
        with self._cond:
            handles = list(self._handles)
            rounds = self._rounds
            coalesced = self._coalesced
            escalations = self._escalations
            queued = len(self._queue)
            inflight = len(self._inflight)
            per_shard = [
                {
                    "shard": shard.index,
                    "live": len(shard.members),
                    "followers": sum(
                        len(f) for f in shard.followers.values()
                    ),
                    "utilization": len(shard.members) / self.max_concurrent,
                }
                for shard in self._shards
            ]
            running = sum(
                s["live"] + s["followers"] for s in per_shard
            )
            by_status = dict(self._pruned_by_status)
        n_pruned = sum(by_status.values())
        for h in handles:
            by_status[h.status.value] += 1
        return {
            "submitted": len(handles) + n_pruned,
            "by_status": by_status,
            "queued": queued,
            "running": running,
            "inflight": inflight,
            "rounds": rounds,
            "coalesced": coalesced,
            "escalations": escalations,
            "escalation": (
                self.escalation.describe()
                if self.escalation is not None
                else None
            ),
            "max_concurrent": self.max_concurrent,
            "backend": "auto" if self._router is not None else self.backend.name,
            "routing": (
                self._router.stats() if self._router is not None else None
            ),
            "shards": len(self._shards),
            "per_shard": per_shard,
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting jobs; optionally drop the still-queued ones.

        With ``wait=True`` (default) blocks until the workers drained
        everything already submitted — running jobs always finish,
        queued jobs finish unless ``cancel_pending``.
        """
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if cancel_pending:
            for handle in self._queue.snapshot():
                handle.cancel()
            with self._cond:
                self._cond.notify_all()
        if wait:
            for shard in self._shards:
                shard.thread.join()
            # Release the pools of backends this service built (fresh
            # per-shard instances and any routed/override extras);
            # shared/caller-owned backends are untouched.  close() is
            # idempotent, so repeated shutdowns are safe.
            extras = [
                bk for shard in self._shards for bk in shard.extras.values()
            ]
            for bk in self._owned_backends + extras:
                close = getattr(bk, "close", None)
                if close is not None:
                    close()

    def __enter__(self) -> "IntegrationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Worker loop (one thread per shard)
    # ------------------------------------------------------------------
    def _run_loop(self, shard: _Shard) -> None:
        try:
            while True:
                with self._cond:
                    while (
                        not self._stopping
                        and self._worker_error is None
                        and len(self._queue) == 0
                        and not shard.members
                    ):
                        self._cond.wait()
                    if self._worker_error is not None:
                        # A sibling shard died: abandon this shard's live
                        # runs (their handles were already failed) and
                        # stop serving.
                        for index in list(shard.members):
                            shard.scheduler.abandon_member(index)
                        return
                    if (
                        self._stopping
                        and len(self._queue) == 0
                        and not shard.members
                    ):
                        return
                self._process_cancellations(shard)
                self._admit(shard)
                self._serve_round(shard)
                self._prune_history()
        except BaseException as exc:  # the rotation must never die silently
            self._die(exc)

    def _prune_history(self) -> None:
        """Drop the oldest terminal handles beyond ``history_limit``.

        Amortised: runs only once the retained list exceeds twice the
        limit, so the workers do not rescan history every round.
        """
        limit = self.history_limit
        if limit is None:
            return
        with self._cond:
            if len(self._handles) <= max(2 * limit, limit + 16):
                return
            terminal = [h for h in self._handles if h.status.terminal]
            excess = len(terminal) - limit
            if excess <= 0:
                return
            dropped = set()
            for h in terminal[:excess]:
                self._pruned_by_status[h.status.value] += 1
                dropped.add(h.job_id)
            self._handles = [
                h for h in self._handles if h.job_id not in dropped
            ]

    def _die(self, exc: BaseException) -> None:
        with self._cond:
            self._worker_error = exc
            self._stopping = True
            self._cond.notify_all()
        for handle in self.jobs():
            if not handle.done:
                handle._complete(JobStatus.FAILED, exception=exc)

    # ------------------------------------------------------------------
    def _job_policy(self, spec: JobSpec) -> Optional[EscalationPolicy]:
        """The effective escalation policy for a job (``None`` = off)."""
        if spec.escalation is None:
            return self.escalation
        if spec.escalation == "off":
            return None
        return EscalationPolicy.parse(spec.escalation)

    def _job_backend(
        self, shard: _Shard, spec: JobSpec, resolved: ResolvedJob
    ) -> Tuple[ArrayBackend, int]:
        """The backend instance + chunk grain this job runs on.

        Per-job ``spec.backend`` overrides always win; an ``auto``
        service routes the rest; a pinned service runs them on the
        shard default.  Instances for non-default specs are built once
        per shard and reused (``shard.extras``), so routed jobs keep
        warm pools exactly like pinned ones.
        """
        override = spec.backend if spec.backend != "auto" else None
        if self._router is not None:
            target: Optional[str] = self._router.decide(
                ndim=resolved.ndim, rel_tol=spec.rel_tol, override=override,
                context="batch",  # jobs execute through the rotation
            ).backend
        else:
            # On a pinned service an explicit "auto" defers to the pin —
            # the service is the routing decision.
            target = override
        if target is None:
            return shard.backend, self.chunk_budget
        backend = shard.extras.get(target)
        if backend is None:
            if target == shard.backend.name:
                backend = shard.backend  # routed to the default: reuse
            else:
                backend = new_backend(target)
            shard.extras[target] = backend
        budget = PaganiConfig.resolve_chunk_budget(
            backend, self._chunk_budget_override
        )
        return backend, budget

    def _admit(self, shard: _Shard) -> None:
        """Fill the shard's free rotation slots (cache/coalesce first)."""
        while len(shard.members) < self.max_concurrent:
            handle = self._queue.pop()
            if handle is None:
                return
            if not handle._try_start():
                continue  # cancelled between pop and start
            spec = handle.spec
            try:
                resolved = spec.resolve()
                run_backend, chunk_budget = self._job_backend(
                    shard, spec, resolved
                )
                policy = self._job_policy(spec)
            except Exception as exc:
                self._finish(handle, JobStatus.FAILED, exception=exc)
                continue

            fingerprint = None
            if self.cache is not None and resolved.cache_id is not None:
                # The *resolved* backend (and its grain) is hashed, never
                # the "auto" policy: cache identity must describe the
                # bits, and two routers may decide differently.  The
                # effective escalation descriptor is hashed for the same
                # reason: an armed ladder can change the numbers.
                fingerprint = job_fingerprint(
                    integrand_id=resolved.cache_id,
                    ndim=resolved.ndim,
                    bounds=resolved.bounds,
                    rel_tol=spec.rel_tol,
                    abs_tol=spec.abs_tol,
                    backend=run_backend.name,
                    chunk_budget=chunk_budget,
                    max_iterations=spec.max_iterations,
                    relerr_filtering=resolved.relerr_filtering,
                    collect_traces=self.collect_traces,
                    escalation=(
                        policy.describe() if policy is not None else None
                    ),
                )
                handle.stats.fingerprint = fingerprint
                cached = self.cache.get(fingerprint)
                if cached is not None:
                    handle.stats.cache_hit = True
                    self._finish(handle, JobStatus.DONE, result=cached)
                    continue
                # Cross-shard coalescing: the in-flight map and the
                # twin's follower/weight tables only change under the
                # condition lock, so the twin cannot finish (and drain
                # its followers) between the lookup and the append.
                with self._cond:
                    twin = self._inflight.get(fingerprint)
                    if twin is not None:
                        twin_shard, twin_index = twin
                        twin_handle = twin_shard.members[twin_index]
                        handle.stats.cache_hit = True
                        handle.stats.coalesced_with = twin_handle.job_id
                        twin_shard.followers[twin_index].append(handle)
                        # The shared run now serves this job too: it must
                        # rotate at the *most urgent* attached priority,
                        # or a high-priority duplicate would crawl at its
                        # twin's rate.
                        twin_shard.weights[twin_index] = max(
                            twin_shard.weights[twin_index], spec.priority
                        )
                        self._coalesced += 1
                        continue

            # The job's numerical options and integrate()'s kwargs meet
            # in IntegrationRequest, so service runs and API runs build
            # their PaganiConfig through the same code path.
            cfg = spec.to_request().to_pagani_config(
                resolved.fn, backend=run_backend, chunk_budget=chunk_budget
            )
            if policy is not None and spec.max_iterations is None:
                # the stall watchdog: bound the PAGANI attempt so a
                # non-converging run reaches the ladder promptly
                cfg.max_iterations = min(
                    cfg.max_iterations, policy.watchdog_iterations
                )
            try:
                run = PaganiIntegrator(cfg).start_run(
                    resolved.fn, resolved.ndim, bounds=resolved.bounds,
                    collect_trace=self.collect_traces,
                )
            except Exception as exc:
                self._finish(handle, JobStatus.FAILED, exception=exc)
                continue
            index = shard.scheduler.add(run)
            # Member/follower tables are read by stats() and sibling
            # shards; every structural mutation happens under the lock.
            with self._cond:
                shard.members[index] = handle
                shard.followers[index] = []
                shard.weights[index] = spec.priority
                if fingerprint is not None:
                    shard.member_fp[index] = fingerprint
                    self._inflight[fingerprint] = (shard, index)
            shard.resolved[index] = resolved
            shard.credits[index] = 0.0

    # ------------------------------------------------------------------
    def _serve_round(self, shard: _Shard) -> None:
        """One weighted rotation round over the shard's live members."""
        with self._cond:
            live = sorted(shard.members)
            weights = {i: shard.weights[i] for i in live}
        if not live:
            return
        # Weighted round-robin: credit grows by priority; members at the
        # threshold are served and pay it back.  The highest-priority
        # member is served every round; a priority-p member every
        # ceil(w_max / p) rounds — service rate ∝ priority.
        w_max = max(weights[i] for i in live)
        serve = []
        for i in live:
            shard.credits[i] += weights[i]
            if shard.credits[i] >= w_max:
                shard.credits[i] -= w_max
                serve.append(i)

        failures = shard.scheduler.run_round(only=serve)
        with self._cond:
            self._rounds += 1
        for i in serve:
            handle = shard.members.get(i)
            if handle is None:
                continue
            handle.stats.rounds_served += 1
            if i in failures:
                self._finish_member(shard, i, error=failures[i])
            elif shard.scheduler.member(i).finished:
                self._finish_member(shard, i)

    # ------------------------------------------------------------------
    def _process_cancellations(self, shard: _Shard) -> None:
        """Apply pending cancel requests to the shard's members/followers."""
        for index in list(shard.members):
            handle = shard.members[index]
            if handle.cancel_requested and not handle.done:
                shard.scheduler.abandon_member(index)
                self._finish_member(shard, index, cancelled=True)
        cancelled_followers = []
        with self._cond:
            for followers in shard.followers.values():
                for follower in list(followers):
                    if follower.cancel_requested and not follower.done:
                        followers.remove(follower)
                        cancelled_followers.append(follower)
        for follower in cancelled_followers:
            follower._complete(JobStatus.CANCELLED, exception=CancelledError())

    # ------------------------------------------------------------------
    def _finish_member(
        self,
        shard: _Shard,
        index: int,
        error: Optional[BaseException] = None,
        cancelled: bool = False,
    ) -> None:
        """Retire rotation member ``index`` and resolve its handles."""
        if error is None and not cancelled:
            self._finish_member_done(shard, index)
            return
        with self._cond:
            handle = shard.members.pop(index)
            followers = shard.followers.pop(index)
            shard.weights.pop(index)
            fingerprint = shard.member_fp.pop(index, None)
            if (
                fingerprint is not None
                and self._inflight.get(fingerprint) == (shard, index)
            ):
                self._inflight.pop(fingerprint)
        shard.resolved.pop(index)
        shard.credits.pop(index)

        if cancelled:
            handle._complete(JobStatus.CANCELLED, exception=CancelledError())
            # Followers coalesced onto a cancelled run still want their
            # result: back to the queue for a fresh slot.  They are no
            # longer being served without recomputation, so the
            # coalescing marks come off before the retry.
            requeued = False
            for follower in followers:
                if follower._back_to_queue():
                    follower.stats.cache_hit = False
                    follower.stats.coalesced_with = None
                    self._queue.push(follower)
                    requeued = True
            if requeued:
                with self._cond:
                    self._cond.notify_all()
            shard.scheduler.retire_member(index)
            return
        # error is not None: deterministic integrand failure — the
        # coalesced twins would fail identically, so fail them now
        # instead of re-running.
        self._finish(handle, JobStatus.FAILED, exception=error)
        for follower in followers:
            self._finish(follower, JobStatus.FAILED, exception=error)
        shard.scheduler.retire_member(index)

    def _finish_member_done(self, shard: _Shard, index: int) -> None:
        """Successful completion: publish, then drop the member tables.

        The cache write and the in-flight/member removals happen in one
        locked section so a duplicate admitted on any shard finds either
        the in-flight entry (and coalesces) or the cache entry (and
        replays) — never neither.  Followers appended up to the moment
        the lock is taken are resolved with the result below.
        """
        result = shard.scheduler.member(index).result
        # Retire the member immediately: a long-lived rotation must not
        # pin every finished run (and its result/trace) forever.
        shard.scheduler.retire_member(index)
        resolved = shard.resolved.pop(index)
        shard.credits.pop(index)
        if resolved.reference is not None:
            result.true_value = resolved.reference
        handle_peek = shard.members[index]
        policy = self._job_policy(handle_peek.spec)
        escalation_cancelled = False
        if policy is not None and policy.should_escalate(result):
            # Re-run down the baseline ladder on this worker thread (a
            # recovery path — blocking the rotation briefly is the
            # honest price of not returning a failed result).  The
            # cancel check stops the ladder between stages; a ladder
            # stopped that way yields a *partial* outcome, which must
            # not enter the cache or resolve coalesced followers.
            result = policy.apply(
                resolved.fn,
                resolved.ndim,
                handle_peek.spec.to_request(),
                result,
                bounds=resolved.bounds,
                cancel_check=lambda: handle_peek.cancel_requested,
            )
            if resolved.reference is not None:
                result.true_value = resolved.reference
            escalation_cancelled = handle_peek.cancel_requested
            with self._cond:
                self._escalations += 1
        with self._cond:
            fingerprint = shard.member_fp.pop(index, None)
            if (
                fingerprint is not None
                and self.cache is not None
                and not escalation_cancelled
            ):
                self.cache.put(fingerprint, result)
            handle = shard.members.pop(index)
            followers = shard.followers.pop(index)
            shard.weights.pop(index)
            if (
                fingerprint is not None
                and self._inflight.get(fingerprint) == (shard, index)
            ):
                self._inflight.pop(fingerprint)
        if escalation_cancelled:
            handle._complete(JobStatus.CANCELLED, exception=CancelledError())
            # Followers wanted the full ladder outcome, not the partial
            # one a cancelled ladder produced: back to the queue, same
            # as followers of a cancelled run.
            requeued = False
            for follower in followers:
                if follower._back_to_queue():
                    follower.stats.cache_hit = False
                    follower.stats.coalesced_with = None
                    self._queue.push(follower)
                    requeued = True
            if requeued:
                with self._cond:
                    self._cond.notify_all()
            return
        if result.escalated:
            handle.stats.escalated = True
        self._finish(handle, JobStatus.DONE, result=result)
        for follower in followers:
            if result.escalated:
                follower.stats.escalated = True
            self._finish(
                follower, JobStatus.DONE, result=copy.deepcopy(result)
            )

    def _finish(self, handle: JobHandle, status: JobStatus, **kwargs) -> None:
        if status in (JobStatus.DONE, JobStatus.FAILED):
            with self._cond:
                handle.stats.completion_index = self._completion_counter
                self._completion_counter += 1
        handle._complete(status, **kwargs)
