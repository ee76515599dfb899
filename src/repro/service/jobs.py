"""Job model of the integration service.

A **job** is one integration request: an integrand (named spec string or
batch callable), a domain, tolerances, and a scheduling priority.  Jobs
travel through the service as :class:`JobSpec` (the immutable request),
become :class:`JobHandle` on submission (the future-like object the
client keeps), and finish in one of the terminal :class:`JobStatus`
states.

Lifecycle::

    QUEUED ──admitted──▶ RUNNING ──converged/terminal──▶ DONE
       │                    │──integrand raised────────▶ FAILED
       └──cancel()──────────┴──cancel()────────────────▶ CANCELLED

``QUEUED → CANCELLED`` is synchronous (the job never runs); cancelling a
``RUNNING`` job is asynchronous — the worker abandons the run before its
next rotation round and the handle then reports ``CANCELLED``.
"""

from __future__ import annotations

import enum
import threading
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.result import IntegrationResult
from repro.errors import ConfigurationError
from repro.integrands.catalog import canonical_spec, named_integrand


class JobFailedError(RuntimeError):
    """Raised by :meth:`JobHandle.result` when the job's integrand raised.

    The original exception is chained as ``__cause__``.
    """


class JobStatus(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


@dataclass(frozen=True)
class JobSpec:
    """One integration request.

    ``integrand`` is either a named spec string (``"5D-f4"``,
    ``"6D-genz-gaussian"`` — see :mod:`repro.integrands.catalog`) or a
    batch callable ``(N, ndim) -> (N,)``.  Only jobs with a stable
    integrand identity participate in the result cache: named specs get
    one automatically; a custom callable opts in by carrying a
    ``cache_key`` string attribute that the caller promises identifies
    the function's mathematical content.

    ``priority`` is a positive integer; larger runs sooner *and* faster
    (admission order and a priority-proportional share of the rotation —
    see ``docs/service.md``).

    ``backend`` is a per-job execution override: a spec string like
    ``"numpy"`` or ``"process:4"`` pins this job regardless of the
    service's backend (the escape hatch of the ``auto`` routing policy),
    ``"auto"`` asks for routing explicitly, ``None`` (default) defers to
    the service.  The backend does not enter the cache fingerprint:
    every backend computes the same bits, so an override may replay an
    entry another backend wrote.

    ``escalation`` is the per-job baseline-escalation override: ``None``
    (default) inherits the service's policy, ``"off"``/``False``
    disables escalation for this job, and ``True``/``"default"``/a
    ladder descriptor like ``"two_phase>vegas>qmc;watchdog=8"`` enables
    it (see :class:`repro.service.escalation.EscalationPolicy`).  The
    value is canonicalised to the policy descriptor at construction;
    the effective policy's descriptor enters the cache fingerprint, so
    escalated and native results never alias.
    """

    integrand: Union[str, Callable[[np.ndarray], np.ndarray]]
    ndim: Optional[int] = None
    bounds: Optional[Sequence[Sequence[float]]] = None
    rel_tol: float = 1e-3
    abs_tol: float = 1e-20
    priority: int = 1
    label: Optional[str] = None
    max_iterations: Optional[int] = None
    relerr_filtering: Optional[bool] = None
    backend: Optional[str] = None
    escalation: Union[None, bool, str] = None

    _FIELDS = (
        "integrand", "ndim", "bounds", "rel_tol", "abs_tol", "priority",
        "label", "max_iterations", "relerr_filtering", "backend",
        "escalation",
    )

    def __post_init__(self) -> None:
        # Canonicalise the escalation override: None stays None
        # (inherit), everything else becomes "off" or the policy's
        # canonical descriptor — value semantics for coalescing and
        # fingerprints.  Malformed values raise here, at construction.
        if self.escalation is not None:
            from repro.service.escalation import EscalationPolicy

            policy = EscalationPolicy.parse(self.escalation)
            object.__setattr__(
                self, "escalation", policy.describe() if policy else "off"
            )

    def validate(self) -> None:
        if not (isinstance(self.priority, int) and self.priority >= 1):
            raise ConfigurationError(
                f"priority must be a positive integer, got {self.priority!r}"
            )
        if self.backend is not None and not isinstance(self.backend, str):
            raise ConfigurationError(
                "job backend must be a spec string like 'numpy', "
                f"'process:4' or 'auto', got {self.backend!r}"
            )
        if not (0.0 < self.rel_tol < 1.0):
            raise ConfigurationError(
                f"rel_tol must be in (0, 1), got {self.rel_tol}"
            )
        if self.abs_tol < 0.0:
            raise ConfigurationError("abs_tol must be non-negative")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        """Build a spec from one ``jobs.json`` entry (strict keys)."""
        unknown = set(data) - set(cls._FIELDS)
        if unknown:
            raise ConfigurationError(
                f"unknown job keys {sorted(unknown)}; allowed: "
                f"{list(cls._FIELDS)}"
            )
        if "integrand" not in data:
            raise ConfigurationError("job entry needs an 'integrand' spec")
        if not isinstance(data["integrand"], str):
            raise ConfigurationError(
                "jobs-file integrands must be named specs like '5D-f4'"
            )
        try:
            canonical_spec(data["integrand"])
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        spec = cls(**data)
        spec.validate()
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """Round-trippable dict for jobs files (named integrands only)."""
        if not isinstance(self.integrand, str):
            raise ConfigurationError(
                "only named-integrand jobs serialise to a jobs file"
            )
        out: Dict[str, Any] = {"integrand": self.integrand}
        for key in self._FIELDS[1:]:
            if key == "bounds":
                continue  # arrays don't compare to None; handled below
            value = getattr(self, key)
            if value is not None and value != JobSpec.__dataclass_fields__[key].default:
                out[key] = value
        if self.bounds is not None:
            out["bounds"] = [list(map(float, b)) for b in self.bounds]
        return out

    # ------------------------------------------------------------------
    @classmethod
    def from_request(
        cls,
        integrand: Union[str, Callable[[np.ndarray], np.ndarray]],
        request: "Any",
        *,
        ndim: Optional[int] = None,
        priority: int = 1,
        label: Optional[str] = None,
    ) -> "JobSpec":
        """Build a job from an :class:`repro.api.IntegrationRequest`.

        The request carries the numerical options shared with
        :func:`repro.api.integrate`; the job adds the service-side
        identity (integrand, priority, label).  A live
        :class:`~repro.backends.base.ArrayBackend` in ``request.backend``
        is flattened to its spec string so the job stays serialisable.
        """
        from repro.backends import resolve_backend

        if request.method != "pagani":
            raise ConfigurationError(
                "the job service runs the PAGANI loop; got "
                f"method={request.method!r}"
            )
        backend = request.backend
        if backend is not None and not isinstance(backend, str):
            backend = resolve_backend(backend).spec
        spec = cls(
            integrand=integrand,
            ndim=ndim,
            bounds=request.bounds,
            rel_tol=request.rel_tol,
            abs_tol=request.abs_tol,
            priority=priority,
            label=label,
            max_iterations=request.max_iterations,
            relerr_filtering=request.relerr_filtering,
            backend=backend,
            # a request is explicit: no escalation means "off", not
            # "inherit the service default"
            escalation=request.escalation if request.escalation else "off",
        )
        spec.validate()
        return spec

    def to_request(self) -> "Any":
        """The :class:`repro.api.IntegrationRequest` view of this job.

        Inverse of :meth:`from_request` for the shared numerical fields;
        the service-only fields (integrand, priority, label) do not
        travel.
        """
        from repro.api import IntegrationRequest  # circular at import time

        return IntegrationRequest(
            bounds=self.bounds,
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
            backend=self.backend,
            max_iterations=self.max_iterations,
            relerr_filtering=self.relerr_filtering,
            escalation=(
                self.escalation
                if self.escalation not in (None, "off")
                else None
            ),
        )

    # ------------------------------------------------------------------
    def resolve(self) -> "ResolvedJob":
        """Materialise the callable, domain and cache identity."""
        self.validate()
        if isinstance(self.integrand, str):
            try:
                cache_id: Optional[str] = canonical_spec(self.integrand)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from None
            fn: Callable = named_integrand(cache_id)
            ndim = int(getattr(fn, "ndim"))
            if self.ndim is not None and int(self.ndim) != ndim:
                raise ConfigurationError(
                    f"spec {self.integrand!r} is {ndim}-dimensional but the "
                    f"job says ndim={self.ndim}"
                )
        else:
            fn = self.integrand
            ndim = self.ndim if self.ndim is not None else getattr(fn, "ndim", None)
            if ndim is None:
                raise ConfigurationError(
                    "callable integrands need ndim= (or an 'ndim' attribute)"
                )
            ndim = int(ndim)
            key = getattr(fn, "cache_key", None)
            cache_id = f"custom:{key}" if isinstance(key, str) else None

        if self.bounds is None:
            bounds = np.array([(0.0, 1.0)] * ndim, dtype=np.float64)
        else:
            bounds = np.asarray(self.bounds, dtype=np.float64)
            if bounds.shape != (ndim, 2):
                raise ConfigurationError(
                    f"bounds must have shape ({ndim}, 2), got {bounds.shape}"
                )
        filtering = (
            bool(getattr(fn, "sign_definite", True))
            if self.relerr_filtering is None
            else bool(self.relerr_filtering)
        )
        label = self.label or getattr(fn, "name", "") or (
            cache_id if cache_id else f"job:{getattr(fn, '__name__', 'callable')}"
        )
        ref = getattr(fn, "reference", None)
        return ResolvedJob(
            fn=fn, ndim=ndim, bounds=bounds, cache_id=cache_id, label=label,
            relerr_filtering=filtering,
            reference=float(ref) if ref is not None else None,
        )


@dataclass
class ResolvedJob:
    """A :class:`JobSpec` after integrand/domain resolution."""

    fn: Callable[[np.ndarray], np.ndarray]
    ndim: int
    bounds: np.ndarray
    cache_id: Optional[str]
    label: str
    relerr_filtering: bool
    reference: Optional[float]


@dataclass
class JobStats:
    """Per-job observability (all timestamps are ``time.perf_counter``)."""

    priority: int
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: rotation rounds in which this job's run was served an iteration
    rounds_served: int = 0
    #: served from the result cache (or coalesced onto an in-flight twin)
    cache_hit: bool = False
    #: job id of the in-flight twin this job coalesced onto, if any
    coalesced_with: Optional[int] = None
    #: 0-based position in the service's completion order
    completion_index: Optional[int] = None
    #: cache fingerprint (None for uncacheable callables / cache off)
    fingerprint: Optional[str] = None
    #: the job's PAGANI run failed and a baseline escalation ladder ran
    escalated: bool = False

    @property
    def queue_seconds(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def total_seconds(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


class JobHandle:
    """Future-like view of one submitted job.

    Thread-safe: clients block in :meth:`result` / :meth:`wait` while the
    service worker completes the job.  ``add_done_callback`` powers the
    asyncio bridge in :mod:`repro.service.aio`.
    """

    def __init__(self, job_id: int, spec: JobSpec):
        self.job_id = job_id
        self.spec = spec
        self.stats = JobStats(
            priority=spec.priority, submitted_at=time.perf_counter()
        )
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._status = JobStatus.QUEUED
        self._result: Optional[IntegrationResult] = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["JobHandle"], None]] = []
        self._cancel_requested = False

    # ------------------------------------------------------------------
    @property
    def status(self) -> JobStatus:
        with self._lock:
            return self._status

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def cache_hit(self) -> bool:
        return self.stats.cache_hit

    @property
    def cancel_requested(self) -> bool:
        with self._lock:
            return self._cancel_requested

    def __repr__(self) -> str:
        return (
            f"<JobHandle #{self.job_id} {self.spec.label or self.spec.integrand!r} "
            f"{self.status.value}>"
        )

    # ------------------------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; False on timeout."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> IntegrationResult:
        """The job's :class:`IntegrationResult`.

        Blocks up to ``timeout`` seconds (``None`` = forever).  Raises
        ``TimeoutError`` if the job is not terminal in time,
        ``concurrent.futures.CancelledError`` if it was cancelled, and
        :class:`JobFailedError` (original exception chained) if the
        integrand raised.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job #{self.job_id} not finished within {timeout} s"
            )
        with self._lock:
            if self._exception is not None:
                if isinstance(self._exception, CancelledError):
                    raise self._exception
                raise JobFailedError(
                    f"job #{self.job_id} ({self.spec.label or self.spec.integrand!r}) "
                    "failed"
                ) from self._exception
            assert self._result is not None
            return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The job's exception (None when it succeeded); blocks like
        :meth:`result`."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job #{self.job_id} not finished within {timeout} s"
            )
        with self._lock:
            return self._exception

    # ------------------------------------------------------------------
    def cancel(self) -> bool:
        """Request cancellation; returns False if already terminal.

        A queued job is cancelled immediately; a running one is
        abandoned by the worker before its next round (``status`` flips
        to ``CANCELLED`` asynchronously — ``wait()`` to observe it).
        """
        with self._lock:
            if self._status.terminal:
                return False
            if self._status is JobStatus.QUEUED:
                self._finish_locked(JobStatus.CANCELLED, exception=CancelledError())
                callbacks = self._drain_callbacks_locked()
            else:
                self._cancel_requested = True
                return True
        self._run_callbacks(callbacks)
        return True

    def add_done_callback(self, fn: Callable[["JobHandle"], None]) -> None:
        """Call ``fn(handle)`` once terminal (immediately if already)."""
        with self._lock:
            if not self._status.terminal:
                self._callbacks.append(fn)
                return
        fn(self)

    # -- service-side transitions --------------------------------------
    def _try_start(self) -> bool:
        """QUEUED → RUNNING; False if the job was cancelled meanwhile."""
        with self._lock:
            if self._status is not JobStatus.QUEUED:
                return False
            self._status = JobStatus.RUNNING
            if self.stats.started_at is None:
                self.stats.started_at = time.perf_counter()
            return True

    def _back_to_queue(self) -> bool:
        """RUNNING → QUEUED (a follower whose primary was cancelled)."""
        with self._lock:
            if self._status is not JobStatus.RUNNING:
                return False
            self._status = JobStatus.QUEUED
            return True

    def _complete(
        self,
        status: JobStatus,
        result: Optional[IntegrationResult] = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            if self._status.terminal:
                return
            self._result = result
            self._finish_locked(status, exception=exception)
            callbacks = self._drain_callbacks_locked()
        self._run_callbacks(callbacks)

    def _finish_locked(
        self, status: JobStatus, exception: Optional[BaseException]
    ) -> None:
        self._status = status
        self._exception = exception
        self.stats.finished_at = time.perf_counter()
        self._event.set()

    def _drain_callbacks_locked(self) -> List[Callable[["JobHandle"], None]]:
        callbacks, self._callbacks = self._callbacks, []
        return callbacks

    def _run_callbacks(self, callbacks: List[Callable[["JobHandle"], None]]) -> None:
        for fn in callbacks:
            try:
                fn(self)
            except Exception:  # callbacks must not kill the worker
                pass
