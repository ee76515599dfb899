"""Top-level convenience API.

Most users want one call::

    from repro import integrate
    result = integrate(f, ndim=5, rel_tol=1e-6)            # PAGANI
    result = integrate(f, ndim=5, method="cuhre")          # baseline

Many independent integrals go through the batched entry point, which
interleaves their PAGANI iterations over one shared backend::

    from repro import integrate_many
    results = integrate_many([f, g, h], rel_tol=1e-6, backend="auto")

A *stream* of requests — with priorities, cancellation and a result
cache — goes through the service layer (:mod:`repro.service`); the
one-shot convenience for a fixed job list is :func:`serve_jobs`::

    from repro import serve_jobs
    from repro.service import JobSpec
    handles = serve_jobs([
        JobSpec("5D-f4", rel_tol=1e-4, priority=3),
        JobSpec("8D-f7", rel_tol=1e-3),
    ])
    results = [h.result() for h in handles]

Method-specific configuration objects remain available for full control
(:class:`~repro.core.PaganiConfig` etc.); keyword arguments here cover the
common knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import BackendLike, get_backend
from repro.baselines.cuhre import CuhreConfig, CuhreIntegrator
from repro.baselines.qmc import QmcConfig, QmcIntegrator
from repro.baselines.two_phase import TwoPhaseConfig, TwoPhaseIntegrator
from repro.baselines.vegas import VegasConfig, VegasIntegrator
from repro.core.pagani import PaganiConfig, PaganiIntegrator
from repro.core.result import IntegrationResult
from repro.errors import ConfigurationError
from repro.gpu.device import DeviceSpec, VirtualDevice

_METHODS = ("pagani", "cuhre", "two_phase", "qmc", "vegas")


@dataclass(frozen=True)
class IntegrationRequest:
    """The canonical options of one integration request.

    Every request surface reduces to (or is built from) this one frozen
    value: :func:`integrate` keyword arguments construct one internally,
    :func:`integrate_many` builds each member's configuration from one,
    and :class:`repro.service.JobSpec` converts to/from one
    (``JobSpec.from_request`` / ``JobSpec.to_request``) — so option
    names, defaults and validation cannot drift between the three
    surfaces, and a request that produced a given cache fingerprint via
    one surface produces the same fingerprint via any other.

    Fields
    ------
    bounds:
        ``(ndim, 2)`` low/high pairs (``None`` = unit cube), canonicalised
        to nested tuples so requests hash and compare as values.
    rel_tol / abs_tol:
        Termination tolerances (paper defaults: ``abs_tol = 1e-20`` so
        the relative condition governs).
    backend:
        Execution backend spec (``None`` = reference NumPy, ``"auto"`` =
        route per call); see :mod:`repro.backends`.
    max_iterations:
        Iteration cap for the breadth-first methods (``None`` keeps the
        method default).
    relerr_filtering:
        §3.5.1 flag; ``None`` reads the integrand's ``sign_definite``
        attribute at run time.
    method:
        ``"pagani"`` (default) or a baseline (``"cuhre"``,
        ``"two_phase"``, ``"qmc"``, ``"vegas"``).
    escalation:
        ``None`` (default) disables baseline escalation.  Anything else
        is parsed by
        :meth:`repro.service.escalation.EscalationPolicy.parse` — e.g.
        ``"default"`` or an explicit ladder ``"two_phase>vegas>qmc"`` —
        and canonicalised to the policy's descriptor string, so equal
        policies hash/compare equally.  When set (``method="pagani"``
        only), a run that ends in ``MEMORY_EXHAUSTED`` / the iteration
        watchdog is re-run down the ladder with the full per-stage
        history attached to the result (see ``result.escalation``).

    Examples
    --------
    >>> from repro.api import IntegrationRequest
    >>> req = IntegrationRequest(rel_tol=1e-4, backend="threaded")
    >>> req == IntegrationRequest(rel_tol=1e-4, backend="threaded")
    True
    >>> IntegrationRequest(bounds=[(0, 2), (0, 1)]).bounds
    ((0.0, 2.0), (0.0, 1.0))
    """

    bounds: Optional[Sequence[Sequence[float]]] = None
    rel_tol: float = 1e-3
    abs_tol: float = 1e-20
    backend: BackendLike = None
    max_iterations: Optional[int] = None
    relerr_filtering: Optional[bool] = None
    method: str = "pagani"
    escalation: Optional[str] = None

    def __post_init__(self) -> None:
        # Canonicalise the escalation field to the policy's descriptor
        # string (value semantics: two spellings of the same ladder
        # compare and fingerprint equally).  Malformed values raise here,
        # at construction, like a malformed ladder in validate() would.
        if self.escalation is not None:
            from repro.service.escalation import EscalationPolicy

            policy = EscalationPolicy.parse(self.escalation)
            object.__setattr__(
                self, "escalation", policy.describe() if policy else None
            )
        # Canonicalise well-formed bounds to nested float tuples (value
        # semantics for a frozen dataclass); malformed bounds are left
        # untouched so the integrator's shape check raises its usual
        # ConfigurationError with the ndim in hand.
        if self.bounds is not None:
            try:
                arr = np.asarray(self.bounds, dtype=np.float64)
            except (TypeError, ValueError):
                arr = None
            if arr is not None and arr.ndim == 2 and arr.shape[1] == 2:
                object.__setattr__(
                    self,
                    "bounds",
                    tuple((float(lo), float(hi)) for lo, hi in arr),
                )

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` on bad options."""
        if self.method not in _METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; pick one of {_METHODS}"
            )
        if not (0.0 < self.rel_tol < 1.0):
            raise ConfigurationError(
                f"rel_tol must be in (0, 1), got {self.rel_tol}"
            )
        if self.abs_tol < 0.0:
            raise ConfigurationError("abs_tol must be non-negative")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if self.escalation is not None and self.method != "pagani":
            raise ConfigurationError(
                "escalation re-runs a failed PAGANI job on the baseline "
                f"ladder; it does not apply to method={self.method!r}"
            )

    # ------------------------------------------------------------------
    def resolve_filtering(self, integrand: Optional[Callable] = None) -> bool:
        """The effective §3.5.1 flag for ``integrand`` (see field doc)."""
        if self.relerr_filtering is None:
            return bool(getattr(integrand, "sign_definite", True))
        return bool(self.relerr_filtering)

    def to_pagani_config(
        self,
        integrand: Optional[Callable] = None,
        *,
        backend: BackendLike = None,
    ) -> PaganiConfig:
        """Materialise a :class:`~repro.core.PaganiConfig` for this request.

        ``backend`` overrides the request's backend (the routed/shared
        instance callers already resolved).
        """
        if backend is None:
            backend = self.backend if self.backend is not None else "numpy"
        cfg = PaganiConfig(
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
            relerr_filtering=self.resolve_filtering(integrand),
            backend=backend,
        )
        if self.max_iterations is not None:
            cfg.max_iterations = self.max_iterations
        return cfg


def integrate(
    integrand: Callable[[np.ndarray], np.ndarray],
    ndim: int,
    bounds: Optional[Sequence[Sequence[float]]] = None,
    rel_tol: float = 1e-3,
    abs_tol: float = 1e-20,
    method: str = "pagani",
    device: Optional[VirtualDevice] = None,
    relerr_filtering: Optional[bool] = None,
    max_eval: Optional[int] = None,
    max_iterations: Optional[int] = None,
    backend: BackendLike = None,
    escalation=None,
    request: Optional[IntegrationRequest] = None,
) -> IntegrationResult:
    """Integrate a batch callable over an axis-aligned box.

    The keyword arguments below construct an :class:`IntegrationRequest`
    (pass ``request=`` to supply one directly, in which case it wins
    wholesale over the per-option keywords).  ``device`` and
    ``max_eval`` stay out of the request: they are execution
    environment and baseline-budget concerns, not part of the cacheable
    request identity.

    Parameters
    ----------
    integrand:
        Batch callable ``(N, ndim) -> (N,)`` (wrap scalar functions with
        :class:`~repro.integrands.ScalarIntegrand`).
    ndim:
        Dimensionality, 2..20 for the cubature methods.
    bounds:
        ``(ndim, 2)`` low/high pairs; unit cube by default.
    rel_tol / abs_tol:
        Termination tolerances (paper defaults: τ_abs = 1e-20 so τ_rel
        governs).
    method:
        ``"pagani"`` (default), ``"cuhre"``, ``"two_phase"``, ``"qmc"``
        or ``"vegas"``.
    device:
        Virtual device for the GPU methods (memory-scaled V100 by default).
    relerr_filtering:
        The §3.5.1 user flag; set False for integrands that oscillate in
        sign.  When None, it is read from the integrand's ``sign_definite``
        attribute if present.
    max_eval:
        Evaluation budget for cuhre/qmc.
    max_iterations:
        Iteration cap for the breadth-first methods.
    backend:
        Execution backend for the PAGANI hot path: ``"numpy"`` (default),
        ``"threaded"`` / ``"threaded:<N>"``, ``"process"`` /
        ``"process:<N>"``, or an
        :class:`~repro.backends.base.ArrayBackend` instance.  Host
        backends produce results identical to the NumPy reference; see
        :mod:`repro.backends`.  ``"auto"`` routes this call through the
        process-wide :class:`~repro.backends.routing.BackendRouter`:
        ``process:<N>`` when the job's first-sweep evaluations reach
        one measured threshold and the host has a pool of two or more
        workers, ``numpy`` otherwise (a pure function of the job and the
        host, so the same job always routes the same way).  Only
        ``method="pagani"`` accepts a non-default backend.
    escalation:
        Baseline escalation policy for failed PAGANI runs — ``None``
        (off, default), ``"default"``, an explicit ladder string like
        ``"two_phase>vegas>qmc"``, or an
        :class:`~repro.service.escalation.EscalationPolicy`.  See
        :class:`IntegrationRequest`.

    Returns
    -------
    IntegrationResult
        With ``true_value`` filled in when the integrand carries a
        ``reference`` attribute.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import integrate
    >>> res = integrate(
    ...     lambda x: np.exp(-np.sum(x**2, axis=1)), ndim=3, rel_tol=1e-4,
    ... )
    >>> res.converged
    True
    >>> bool(abs(res.estimate - 0.4165384) < 1e-4)
    True

    Host backends are bit-identical to the reference, so swapping the
    execution substrate never changes the numbers:

    >>> fast = integrate(
    ...     lambda x: np.exp(-np.sum(x**2, axis=1)), ndim=3, rel_tol=1e-4,
    ...     backend="threaded",
    ... )
    >>> fast.estimate == res.estimate
    True

    ``backend="auto"`` picks the backend per job (tiny sweeps stay on
    numpy; big ones go to a process pool when the host has cores):

    >>> routed = integrate(
    ...     lambda x: np.exp(-np.sum(x**2, axis=1)), ndim=3, rel_tol=1e-4,
    ...     backend="auto",
    ... )
    >>> routed.estimate == res.estimate
    True
    """
    if request is None:
        request = IntegrationRequest(
            bounds=bounds, rel_tol=rel_tol, abs_tol=abs_tol, backend=backend,
            max_iterations=max_iterations, relerr_filtering=relerr_filtering,
            method=method, escalation=escalation,
        )
    request.validate()
    method = request.method
    if (
        request.backend is not None
        and request.backend != "numpy"
        and method != "pagani"
    ):
        raise ConfigurationError(
            f"backend selection applies to method='pagani' only (got "
            f"method={method!r}, backend={request.backend!r})"
        )

    if method == "pagani":
        policy = None
        if request.escalation is not None:
            from repro.service.escalation import EscalationPolicy

            policy = EscalationPolicy.parse(request.escalation)
        backend = request.backend
        if isinstance(backend, str) and backend == "auto":
            from repro.backends.routing import shared_router

            backend = shared_router().decide([ndim]).backend
        cfg = request.to_pagani_config(integrand, backend=backend)
        if policy is not None and request.max_iterations is None:
            # the stall watchdog: bound the PAGANI attempt so a
            # non-converging run reaches the ladder instead of burning
            # the full default iteration budget
            cfg.max_iterations = min(
                cfg.max_iterations, policy.watchdog_iterations
            )
        result = PaganiIntegrator(cfg, device=device).integrate(
            integrand, ndim, bounds=request.bounds
        )
        if policy is not None and policy.should_escalate(result):
            result = policy.apply(
                integrand, ndim, request, result, device=device
            )
    elif method == "cuhre":
        cfg = CuhreConfig(rel_tol=request.rel_tol, abs_tol=request.abs_tol)
        if max_eval is not None:
            cfg.max_eval = max_eval
        result = CuhreIntegrator(cfg).integrate(
            integrand, ndim, bounds=request.bounds
        )
    elif method == "two_phase":
        cfg = TwoPhaseConfig(
            rel_tol=request.rel_tol,
            abs_tol=request.abs_tol,
            relerr_filtering=request.resolve_filtering(integrand),
        )
        if request.max_iterations is not None:
            cfg.max_phase1_iterations = request.max_iterations
        result = TwoPhaseIntegrator(cfg, device=device).integrate(
            integrand, ndim, bounds=request.bounds
        )
    elif method == "vegas":
        cfg = VegasConfig(rel_tol=request.rel_tol, abs_tol=request.abs_tol)
        if max_eval is not None:
            cfg.max_eval = max_eval
        result = VegasIntegrator(cfg, device=device).integrate(
            integrand, ndim, bounds=request.bounds
        )
    else:  # qmc
        cfg = QmcConfig(rel_tol=request.rel_tol, abs_tol=request.abs_tol)
        if max_eval is not None:
            cfg.max_eval = max_eval
        result = QmcIntegrator(cfg, device=device).integrate(
            integrand, ndim, bounds=request.bounds
        )

    ref = getattr(integrand, "reference", None)
    if ref is not None:
        result.true_value = float(ref)
    return result




def integrate_sweep(
    spec: str,
    rel_tol: float = 1e-3,
    abs_tol: float = 1e-20,
    backend: BackendLike = None,
    relerr_filtering: Optional[bool] = None,
    max_iterations: Optional[int] = None,
    request: Optional[IntegrationRequest] = None,
) -> List[Tuple[str, IntegrationResult]]:
    """Run a ``sweep:`` spec as one fused :func:`integrate_many` batch.

    A sweep spec binds one catalogue integrand to N parameter sets, e.g.
    ``"sweep:semi_infinite(3D-f4, scale=0.5;1.0;2.0)"`` — see
    :func:`repro.integrands.catalog.expand_sweep` for the grammar.  The
    members execute as one batched workload on a shared backend (their
    PAGANI iterations interleave and their evaluation chunks fuse), and
    each member carries its canonical spec, so every (spec, result) pair
    is individually cacheable and process-shippable.

    Returns the list of ``(canonical member spec, result)`` pairs in
    sweep order.

    Examples
    --------
    >>> from repro import integrate_sweep
    >>> pairs = integrate_sweep(
    ...     "sweep:gaussian_measure(2D-f4, sigma=0.5;1.0)", rel_tol=1e-3,
    ... )
    >>> [spec for spec, _ in pairs]
    ['gaussian_measure(2d-f4, sigma=0.5)', 'gaussian_measure(2d-f4)']
    >>> all(r.converged for _, r in pairs)
    True
    """
    from repro.integrands.catalog import expand_sweep, named_integrand

    members = expand_sweep(spec)
    integrands = [named_integrand(m) for m in members]
    results = integrate_many(
        integrands, rel_tol=rel_tol, abs_tol=abs_tol, backend=backend,
        relerr_filtering=relerr_filtering, max_iterations=max_iterations,
        request=request,
    )
    return list(zip(members, results))


def _resolve_member_bounds(
    bounds, ndims: List[int]
) -> List[Optional[np.ndarray]]:
    """Resolve the ``bounds`` argument of :func:`integrate_many`.

    Accepts ``None`` (unit cubes), a per-member sequence (``None`` entries
    allowed), or — when every member shares one dimensionality — a single
    ``(ndim, 2)`` box applied to all.
    """
    n = len(ndims)
    if bounds is None:
        return [None] * n
    # Per-member sequence (list/tuple/array): right length and every
    # entry is None or (ndim_i, 2).
    if isinstance(bounds, (list, tuple, np.ndarray)) and len(bounds) == n:
        per_member: List[Optional[np.ndarray]] = []
        ok = True
        for b, d in zip(bounds, ndims):
            if b is None:
                per_member.append(None)
                continue
            arr = np.asarray(b, dtype=np.float64)
            if arr.shape != (d, 2):
                ok = False
                break
            per_member.append(arr)
        if ok:
            return per_member
    # Single shared box.  Ragged inputs make asarray itself raise; fold
    # that into the same configuration error as a wrong shape.
    try:
        arr = np.asarray(bounds, dtype=np.float64)
    except ValueError:
        arr = None
    if arr is not None and len(set(ndims)) == 1 and arr.shape == (ndims[0], 2):
        return [arr] * n
    raise ConfigurationError(
        "bounds must be None, one (ndim, 2) box shared by same-dimension "
        f"members, or a length-{n} per-member sequence"
    )


def integrate_many(
    integrands: Sequence[Callable[[np.ndarray], np.ndarray]],
    ndim: Union[int, Sequence[int], None] = None,
    bounds=None,
    rel_tol: float = 1e-3,
    abs_tol: float = 1e-20,
    backend: BackendLike = None,
    relerr_filtering: Optional[bool] = None,
    max_iterations: Optional[int] = None,
    device_spec: Optional[DeviceSpec] = None,
    collect_trace: bool = True,
    return_stats: bool = False,
    on_member_error: str = "raise",
    request: Optional[IntegrationRequest] = None,
):
    """Integrate many independent integrands as one batched workload.

    Like :func:`integrate`, the per-option keywords are a thin shim over
    :class:`IntegrationRequest`: each member's
    :class:`~repro.core.PaganiConfig` is constructed from one canonical
    request (pass ``request=`` to supply the shared options directly; it
    wins wholesale over the per-option keywords it covers).

    All members run the PAGANI breadth-first loop concurrently on one
    shared execution backend: each scheduling round gives every live
    member one iteration (round-robin — no member is starved) and fuses
    their region-evaluation chunks into a single backend submission, so a
    thread pool or device sees one large batch instead of N small sweeps.
    Members that converge exit early and free their region memory while
    the rest keep iterating.  See :mod:`repro.batch` and ``docs/batch.md``.

    Parameters
    ----------
    integrands:
        Batch callables ``(N, ndim_i) -> (N,)``.  Per-member metadata is
        read from the usual optional attributes (``ndim``,
        ``sign_definite``, ``reference``, ``flops_per_eval``).
    ndim:
        One dimensionality for all members, a per-member sequence, or
        ``None`` to read each integrand's ``ndim`` attribute.
    bounds:
        ``None`` (unit cubes), a single ``(ndim, 2)`` box shared by
        same-dimension members, or a per-member sequence of boxes
        (``None`` entries mean unit cube).
    rel_tol / abs_tol / max_iterations / relerr_filtering:
        As in :func:`integrate`, applied to every member
        (``relerr_filtering=None`` reads each member's ``sign_definite``).
    backend:
        The shared execution backend.  Every member's result is
        **bit-identical** to a sequential :func:`integrate` call on any
        backend: parallel backends evaluate at their throughput-tuned
        chunk grain (``preferred_batch_chunk_budget``), and the grain
        never changes a bit.  ``"auto"`` routes the whole batch through
        the process-wide :class:`~repro.backends.routing.BackendRouter`
        by the members' summed first-sweep evaluations.
    device_spec:
        Virtual-device spec for each member (memory-scaled V100 default —
        the same device a plain :func:`integrate` call builds).
    return_stats:
        When True, return ``(results, BatchStats)`` instead of just the
        result list (scheduler rounds, fused submissions, fairness
        counters).
    on_member_error:
        What to do when a member's *integrand raises* during evaluation.
        ``"raise"`` (default): abort the whole call by re-raising
        :class:`~repro.batch.BatchMemberError` (the original exception
        chained) — healthy members' partial work is discarded.
        ``"skip"``: abandon the offender, keep batching, and return
        ``None`` in its slot.

    Returns
    -------
    list[IntegrationResult]
        One result per integrand, in input order, with ``true_value``
        filled in from each integrand's ``reference`` attribute
        (``None`` entries for members skipped under
        ``on_member_error="skip"``).  A member's ``wall_seconds`` spans
        batch start to that member's exit — elapsed shared time, not the
        member's own compute cost (members interleave on one backend);
        per-member ``sim_seconds`` remains the isolated cost model.

    Examples
    --------
    >>> from repro import integrate_many
    >>> from repro.integrands.catalog import named_integrand
    >>> members = [named_integrand("3D-f4"), named_integrand("3D-f3")]
    >>> results = integrate_many(members, rel_tol=1e-3)
    >>> [r.converged for r in results]
    [True, True]

    Every member is bit-identical to a sequential :func:`integrate`
    call, on any backend:

    >>> from repro import integrate
    >>> seq = integrate(members[0], 3, rel_tol=1e-3)
    >>> results[0].estimate == seq.estimate
    True
    >>> threaded = integrate_many(members, rel_tol=1e-3, backend="threaded:2")
    >>> threaded[0].estimate == seq.estimate
    True
    """
    from repro.batch import BatchMemberError, BatchScheduler

    if on_member_error not in ("raise", "skip"):
        raise ConfigurationError(
            f"on_member_error must be 'raise' or 'skip', got "
            f"{on_member_error!r}"
        )
    if request is None:
        request = IntegrationRequest(
            rel_tol=rel_tol, abs_tol=abs_tol, backend=backend,
            max_iterations=max_iterations, relerr_filtering=relerr_filtering,
        )
    elif request.method != "pagani":
        raise ConfigurationError(
            "integrate_many runs the PAGANI loop; got "
            f"method={request.method!r}"
        )
    request.validate()

    integrands = list(integrands)
    n = len(integrands)
    if ndim is None:
        ndims = []
        for f in integrands:
            d = getattr(f, "ndim", None)
            if d is None:
                raise ConfigurationError(
                    "ndim=None requires every integrand to carry an 'ndim' "
                    "attribute"
                )
            ndims.append(int(d))
    elif isinstance(ndim, int):
        ndims = [ndim] * n
    else:
        ndims = [int(d) for d in ndim]
        if len(ndims) != n:
            raise ConfigurationError(
                f"got {len(ndims)} ndim values for {n} integrands"
            )
    member_bounds = _resolve_member_bounds(
        bounds if bounds is not None else request.bounds, ndims
    )

    backend = request.backend
    if isinstance(backend, str) and backend == "auto":
        from repro.backends.routing import shared_router

        backend = shared_router().decide(ndims).backend

    bk = get_backend(backend)
    budget = PaganiConfig.resolve_chunk_budget(bk)

    scheduler = BatchScheduler(backend=bk)
    if n == 0:
        return ([], scheduler.stats) if return_stats else []
    for f, d, b in zip(integrands, ndims, member_bounds):
        cfg = request.to_pagani_config(f, backend=bk)
        cfg.chunk_budget = budget
        device = VirtualDevice(device_spec) if device_spec else None
        integrator = PaganiIntegrator(cfg, device=device)
        scheduler.add(
            integrator.start_run(f, d, bounds=b, collect_trace=collect_trace)
        )

    while True:
        try:
            results = scheduler.run()
            break
        except BatchMemberError:
            if on_member_error == "raise":
                raise
            # "skip": the scheduler already abandoned the offender and the
            # other members are intact — keep batching them.
    for f, res in zip(integrands, results):
        ref = getattr(f, "reference", None)
        if res is not None and ref is not None:
            res.true_value = float(ref)
    return (results, scheduler.stats) if return_stats else results


def serve_jobs(
    specs: Sequence,
    max_concurrent: int = 4,
    backend: BackendLike = None,
    cache: bool = True,
    cache_entries: int = 256,
    shards: int = 1,
    service=None,
):
    """Run a fixed job list through an :class:`~repro.service.IntegrationService`.

    The one-shot service surface used by ``pagani-repro serve`` and the
    benchmark harness: build a service, submit every spec, wait for all,
    shut the service down, and return the handles in submission order
    (inspect ``handle.result()`` / ``handle.status`` / ``handle.stats``).

    Parameters
    ----------
    specs:
        :class:`~repro.service.JobSpec` instances — or dicts in the
        jobs-file shape (``{"integrand": "5D-f4", "rel_tol": 1e-4,
        "priority": 3, ...}``).
    max_concurrent / backend / cache / cache_entries / shards:
        Forwarded to :class:`~repro.service.IntegrationService`
        (``shards=K`` serves the queue with ``K`` independent worker
        rotations, each pinned to its own backend instance;
        ``backend="auto"`` routes each admitted job by its first-sweep
        size; see :mod:`repro.backends.routing`).
    service:
        Use an existing service instead of building one.  The caller
        keeps ownership: the service is *not* shut down and may hold
        cache state across calls.

    Returns
    -------
    list[repro.service.JobHandle]
        One terminal handle per spec, in submission order.

    Examples
    --------
    >>> from repro import serve_jobs
    >>> from repro.service import JobSpec
    >>> handles = serve_jobs([
    ...     JobSpec("3D-f4", rel_tol=1e-3, priority=3),
    ...     JobSpec("3D-f4", rel_tol=1e-3),      # duplicate: cache/coalesce
    ... ])
    >>> [h.status.value for h in handles]
    ['done', 'done']
    >>> handles[0].result().estimate == handles[1].result().estimate
    True
    """
    from repro.service import IntegrationService, JobSpec

    parsed = [
        spec if isinstance(spec, JobSpec) else JobSpec.from_dict(dict(spec))
        for spec in specs
    ]
    own_service = service is None
    if own_service:
        service = IntegrationService(
            max_concurrent=max_concurrent, backend=backend, cache=cache,
            cache_entries=cache_entries, shards=shards,
        )
    try:
        handles = service.submit_many(parsed)
        for handle in handles:
            handle.wait()
    finally:
        if own_service:
            service.shutdown(wait=True)
    return handles


def serve_http(
    host: str = "127.0.0.1",
    port: int = 8053,
    *,
    max_concurrent: int = 4,
    backend: BackendLike = None,
    shards: int = 1,
    cache_entries: int = 256,
    cache_dir=None,
    max_queued: int = 64,
    history_limit: Optional[int] = 1024,
    collect_traces: bool = False,
    escalation=None,
):
    """Start the HTTP/JSON integration server; returns the running server.

    Builds an :class:`~repro.service.IntegrationService` (sharded,
    cached) and binds an
    :class:`~repro.service.http.HttpIntegrationServer` to it.  The
    returned server is already listening; call ``.close()`` (or use a
    ``with`` block) to stop it — the server owns the service and shuts
    it down too.  ``pagani-repro serve --http HOST:PORT`` is the CLI
    face of this function.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` picks a free port — read it back from
        ``server.port`` / ``server.url``.
    max_concurrent / backend / shards / cache_entries / collect_traces:
        Forwarded to :class:`~repro.service.IntegrationService`
        (``backend="auto"`` routes each job by its first-sweep size; see
        :mod:`repro.backends.routing`).
    cache_dir:
        When given, results are also persisted to a SQLite store under
        this directory (:class:`~repro.service.TieredResultCache`):
        duplicate requests after a restart replay **bit-for-bit** from
        disk instead of recomputing.  ``None`` keeps the plain
        in-memory LRU.
    max_queued:
        Admission bound: ``POST /v1/jobs`` is rejected with ``429`` +
        ``Retry-After`` while this many jobs are already waiting.
    history_limit:
        Terminal-handle retention in the service (default 1024 — a
        network-facing server must bound its memory; the HTTP layer
        keeps its own handle map for job lookups).
    escalation:
        Service-wide baseline escalation default (a policy descriptor
        such as ``"two_phase>vegas>qmc"``, ``True`` for the stock
        ladder, ``None``/``"off"`` disabled).  Jobs may override per
        request via their ``escalation`` field.

    Examples
    --------
    >>> import json, urllib.request
    >>> from repro import serve_http
    >>> with serve_http(port=0) as server:        # port 0: pick a free port
    ...     with urllib.request.urlopen(server.url + "/healthz") as r:
    ...         ok = json.loads(r.read())["ok"]
    >>> ok
    True
    """
    from repro.service import IntegrationService, TieredResultCache
    from repro.service.http import HttpIntegrationServer

    cache: Union[bool, "TieredResultCache"] = True
    if cache_dir is not None:
        cache = TieredResultCache(cache_dir, max_entries=cache_entries)
    service = IntegrationService(
        max_concurrent=max_concurrent, backend=backend, cache=cache,
        cache_entries=cache_entries, shards=shards,
        history_limit=history_limit, collect_traces=collect_traces,
        escalation=escalation,
    )
    return HttpIntegrationServer(
        service, host=host, port=port, max_queued=max_queued,
        owns_service=True,
    )
