"""Integration service layer: priority job queue + result cache.

PR 1 made the execution substrate pluggable, PR 2 made many integrals
one workload; this package adds the layer that **accepts, schedules and
caches requests** — the shape of a system serving integration traffic
rather than running one batch:

:mod:`repro.service.jobs`
    The job model: :class:`JobSpec` (request), :class:`JobHandle`
    (future-like), :class:`JobStatus` (lifecycle).
:mod:`repro.service.queue`
    Thread-safe priority queue (priority desc, then looser-``rel_tol``
    shortest-job-first, then FIFO) with lazy cancellation.
:mod:`repro.service.cache`
    Content-addressed LRU :class:`ResultCache`; hits replay the stored
    :class:`~repro.core.result.IntegrationResult` bit-for-bit.
:mod:`repro.service.service`
    :class:`IntegrationService` — ``shards`` worker loops (one by
    default), each admitting up to ``max_concurrent`` jobs into a
    weighted (priority-proportional) batch rotation pinned to its own
    backend instance, with in-flight request coalescing across shards.
:mod:`repro.service.aio`
    ``asyncio`` wrapper (:class:`AsyncIntegrationService`).
:mod:`repro.service.store`
    Durable tier: :class:`DurableResultStore` (SQLite, ``float.hex``
    round-trip) and :class:`TieredResultCache` (LRU front + durable
    back) — the cache survives process restarts bit-for-bit.
:mod:`repro.service.http`
    Stdlib HTTP/JSON front end (:class:`HttpIntegrationServer`) with
    admission control; see :func:`repro.serve_http`.

Jobs are :class:`JobSpec` requests and resolve through future-like
:class:`JobHandle` objects; duplicates are served from the cache or
coalesce onto the in-flight twin:

>>> from repro.service import IntegrationService, JobSpec
>>> with IntegrationService(max_concurrent=2, shards=2) as svc:
...     first = svc.submit("3D-f4", rel_tol=1e-3, priority=4)
...     estimate = first.result(timeout=300).estimate   # runs to completion
...     duplicate = svc.submit_spec(JobSpec("3D-f4", rel_tol=1e-3))
...     done = svc.wait_all(timeout=300)
>>> done, first.status.value, duplicate.status.value
(True, 'done', 'done')
>>> duplicate.cache_hit                    # warm cache: no second run
True
>>> duplicate.result().estimate == estimate  # replay is bit-identical
True

See ``docs/service.md`` for the job model, the cache fingerprint
contract and the priority semantics, ``docs/architecture.md`` for where
the layer sits, and ``pagani-repro serve`` /
``benchmarks/harness.py service`` for the CLI and benchmark surfaces.
"""

from repro.service.aio import AsyncIntegrationService, handle_as_future
from repro.service.cache import ResultCache, job_fingerprint
from repro.service.escalation import EscalationPolicy
from repro.service.jobs import (
    JobFailedError,
    JobHandle,
    JobSpec,
    JobStats,
    JobStatus,
)
from repro.service.http import HttpIntegrationServer
from repro.service.queue import JobQueue
from repro.service.service import IntegrationService, ServiceClosedError
from repro.service.store import DurableResultStore, TieredResultCache

__all__ = [
    "IntegrationService",
    "AsyncIntegrationService",
    "ServiceClosedError",
    "JobQueue",
    "JobSpec",
    "JobHandle",
    "JobStats",
    "JobStatus",
    "JobFailedError",
    "ResultCache",
    "EscalationPolicy",
    "job_fingerprint",
    "handle_as_future",
    "DurableResultStore",
    "TieredResultCache",
    "HttpIntegrationServer",
]
