"""Adaptive backend routing: pick the cheapest adequate backend per job.

The service and API historically pinned one execution backend for every
job, but jobs differ by orders of magnitude: a 100-region 2D probe
should not pay process-pool IPC, and a million-region 6D sweep should
not crawl on single-core numpy.  ``backend="auto"`` routes each job
instead:

1. **Score the job.**  The first breadth-first sweep dominates a run's
   shape: ``splits_for(ndim) ** ndim`` regions, each evaluated at the
   Genz–Malik rule's point count.  The router scores candidates on
   predicted first-sweep seconds = ``s/Meval × Mevals + per-sweep
   dispatch overhead``.
2. **Price the candidates.**  Host-backend ``s/Meval`` priors are the
   constants in :data:`S_PER_MEVAL` (frozen from one run of the backends
   benchmark scenario on a 1-core host) and are refined online
   by observed sweep timings (EWMA — see :meth:`BackendRouter.observe`).
3. **Dispatch.**  Cheapest predicted candidate wins: numpy for tiny
   jobs, ``process:N`` for big sweeps.  Adequacy is never in question
   (the candidates are bit-identical by the conformance contract); the
   decision only moves *where* the same bits are computed.

Escape hatches: a non-``auto`` override (per-job ``JobSpec.backend``,
or an explicit spec anywhere a backend is accepted) bypasses the policy
entirely, and :meth:`BackendRouter.autotune_width` lets a service probe
real pool widths at start-up instead of trusting ``os.cpu_count()``.

Cache identity stays honest: callers fingerprint the **resolved**
backend (its ``.name`` and its resolved chunk budget), never the string
``"auto"`` — two services with different routing outcomes must not
alias cache entries.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.backends.base import resolve_workers
from repro.backends.process import process_pool_available

#: spec string that selects routing instead of a concrete backend
AUTO_SPEC = "auto"

#: The rungs *below* every array backend in the routing hierarchy.
#: Routing moves a PAGANI job between bit-identical execution
#: substrates; when PAGANI itself cannot finish (``MEMORY_EXHAUSTED``,
#: iteration watchdog), no substrate helps — the last resort is a
#: different *algorithm*.  These baseline integrators are priced as the
#: final candidates in that order (cheapest adequate first, mirroring
#: the committed bench ordering) and are reachable only through the
#: escalation policy (:mod:`repro.service.escalation`), never by the
#: per-job backend router: an escalated result changes the numbers, so
#: it must change the fingerprint too — routing's contract is that it
#: never does.
BASELINE_LAST_RESORT = ("two_phase", "vegas", "qmc")

#: s/Meval prior per backend family: the median converged row of one
#: run of the backends benchmark (``harness.py backends``) on a 1-core
#: host, frozen here and not re-derived when the committed benchmark
#: files are regenerated.  Constants, so an installed package routes
#: exactly like a repo checkout; the routing-decision pin tests in
#: tests/backends/test_routing.py guard them.
S_PER_MEVAL = {
    "numpy": 0.08323953586962293,
    "threaded": 0.09863436798412242,
    "process": 0.11419745649987567,
}

#: batched-throughput gain over batched numpy (the batch benchmark's
#: batched-seconds ratios, frozen from one run on the same host) — the
#: *chunk-grain* effect: numpy keeps the bit-identity reference
#: decomposition (16M-float chunks) while threaded/process batch at their
#: throughput-tuned grains, which wins even serially (cache locality),
#: before any parallel speedup.
BATCH_GAIN = {
    "numpy": 1.0,
    "threaded": 1.9960254150225714,
    "process": 2.1497454304363384,
}

#: fixed per-sweep dispatch cost (seconds) a backend pays before any
#: evaluation happens: pool hand-off, chunk submission, result stitch.
#: This is what routes tiny jobs to numpy even when a pool is idle.
SWEEP_OVERHEAD_S = {
    "numpy": 0.0,
    "threaded": 2e-3,
    "process": 2e-2,
}

#: fraction of ideal speedup a width-W pool retains (stitching and the
#: parent's serial share eat the rest); refined by observed timings
PROCESS_PARALLEL_EFFICIENCY = 0.75

#: EWMA weight of each newly observed sweep rate
OBSERVATION_ALPHA = 0.3


def first_sweep_evals(ndim: int, initial_splits: Optional[int] = None) -> int:
    """Evaluations the first breadth-first sweep performs.

    Mirrors :meth:`repro.core.pagani.PaganiConfig.splits_for` ×
    the Genz–Malik point count — the quantity the routing score is
    built on (regions × points; each evaluation touches ``ndim``
    coordinates, which is folded into the measured s/Meval priors).
    """
    from repro.core.pagani import PaganiConfig
    from repro.cubature.rules import get_rule

    splits = PaganiConfig(initial_splits=initial_splits).splits_for(ndim)
    return (splits ** ndim) * get_rule(ndim).npoints


@dataclass
class RoutingDecision:
    """Outcome of one routing evaluation (also a debugging artifact)."""

    backend: str  #: resolved spec string, e.g. ``"numpy"``/``"process:4"``
    reason: str
    evals: float = 0.0  #: predicted first-sweep evaluations
    predicted_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def forced(self) -> bool:
        return self.reason == "override"


class BackendRouter:
    """Scores jobs against backend priors and picks the cheapest.

    Parameters
    ----------
    priors:
        s/Meval seed per backend family; default :data:`S_PER_MEVAL`.
    process_width:
        Pool width the ``process`` candidate is priced (and dispatched)
        at; default ``resolve_workers(None)`` — one worker per CPU.
        :meth:`autotune_width` replaces it with a measured choice.
    process:
        Availability override for tests; ``None`` probes the host.

    Thread-safe: decisions and observations may come from any service
    shard concurrently.
    """

    def __init__(
        self,
        priors: Optional[Dict[str, float]] = None,
        process_width: Optional[int] = None,
        process: Optional[bool] = None,
        batch_gains: Optional[Dict[str, float]] = None,
    ):
        self.priors = dict(S_PER_MEVAL if priors is None else priors)
        self.batch_gains = dict(
            BATCH_GAIN if batch_gains is None else batch_gains
        )
        self.process_width = (
            resolve_workers(None) if process_width is None else int(process_width)
        )
        self._process = (
            process_pool_available() if process is None else bool(process)
        )
        self._lock = threading.Lock()
        self._observed: Dict[str, float] = {}
        self._observations = 0
        self._decisions: Dict[str, int] = {}
        self.autotune_report: Optional[Dict[str, float]] = None
        self.last_decision: Optional[RoutingDecision] = None

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def _rate(self, family: str) -> float:
        """Current s/Meval belief for a backend family."""
        with self._lock:
            observed = self._observed.get(family)
        if observed is not None:
            return observed
        return self.priors.get(family, S_PER_MEVAL["numpy"])

    def _candidates(self, context: str = "plain") -> List[str]:
        out = ["numpy"]
        if self._process and (self.process_width > 1 or context == "batch"):
            # Even a width-1 process backend earns its place in *batch*
            # traffic: it never builds a pool there (the serial guard),
            # but its throughput-tuned fused chunk grain beats numpy's
            # reference decomposition on big sweeps.
            out.append(f"process:{self.process_width}")
        return out

    def predict_seconds(
        self, spec: str, evals: float, context: str = "plain"
    ) -> float:
        """Predicted first-sweep seconds for one candidate spec.

        ``context`` is ``"plain"`` for a solo :func:`repro.api.integrate`
        run (every backend keeps the reference chunk decomposition) or
        ``"batch"`` for work executed through the batch scheduler
        (:func:`repro.api.integrate_many`, the service rotation), where
        threaded/process switch to their fused grains and gain
        :attr:`batch_gains` over numpy before any parallelism.
        """
        family = spec.partition(":")[0]
        mevals = evals / 1e6
        if family == "process":
            width = int(spec.partition(":")[2] or self.process_width)
            with self._lock:
                observed = self._observed.get("process")
            if observed is not None:
                # A real sweep timed on *this* host's pool beats any
                # model — without this, a crawling pool (oversubscribed
                # box, say) keeps winning on paper forever.
                rate = observed
            else:
                serial = self._rate("numpy")
                grain = (
                    self.batch_gains.get("process", 1.0)
                    if context == "batch"
                    else 1.0
                )
                pooled = self.priors.get(
                    "process", S_PER_MEVAL["process"]
                ) / grain
                # The bench prior measured *some* pool; scale the serial
                # rate by the batch-grain gain (batch context only) and
                # this width's ideal speedup, degraded by the
                # stitch/serial share — take whichever is more
                # optimistic.
                rate = min(
                    serial
                    / grain
                    / max(1.0, width * PROCESS_PARALLEL_EFFICIENCY),
                    pooled,
                )
        else:
            rate = self._rate(family)
        return rate * mevals + SWEEP_OVERHEAD_S.get(family, 0.0)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide(
        self,
        ndim: int,
        rel_tol: float = 1e-3,
        initial_splits: Optional[int] = None,
        override: Optional[str] = None,
        context: str = "plain",
    ) -> RoutingDecision:
        """Route one job; ``override`` (non-``auto``) short-circuits.

        ``context="batch"`` prices the job as batch-scheduler work (the
        service rotation): see :meth:`predict_seconds`.
        """
        return self.decide_batch(
            [ndim], rel_tol=rel_tol, initial_splits=initial_splits,
            override=override, context=context,
        )

    def decide_batch(
        self,
        ndims: Sequence[int],
        rel_tol: float = 1e-3,
        initial_splits: Optional[int] = None,
        override: Optional[str] = None,
        context: str = "batch",
    ) -> RoutingDecision:
        """Route a fused batch: one backend for the summed member work."""
        if context not in ("plain", "batch"):
            raise ValueError(f"context must be 'plain' or 'batch', got {context!r}")
        if override is not None and override != AUTO_SPEC:
            decision = RoutingDecision(backend=override, reason="override")
        else:
            evals = float(
                sum(first_sweep_evals(ndim, initial_splits) for ndim in ndims)
            )
            predicted = {
                spec: self.predict_seconds(spec, evals, context)
                for spec in self._candidates(context)
            }
            # stable min: ties go to the earliest candidate (numpy)
            best = min(predicted, key=lambda s: (predicted[s], s != "numpy"))
            decision = RoutingDecision(
                backend=best,
                reason=f"cheapest of {len(predicted)} candidates",
                evals=evals,
                predicted_seconds=predicted,
            )
        with self._lock:
            family = decision.backend.partition(":")[0]
            self._decisions[family] = self._decisions.get(family, 0) + 1
            self.last_decision = decision
        return decision

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def observe(self, backend_name: str, neval: float, seconds: float) -> None:
        """Fold an observed (neval, wall seconds) sample into the rates."""
        if neval <= 0 or seconds <= 0:
            return
        family = backend_name.partition(":")[0]
        rate = seconds / (neval / 1e6)
        with self._lock:
            prev = self._observed.get(family)
            if prev is None:
                prev = self.priors.get(family, rate)
            self._observed[family] = (
                (1.0 - OBSERVATION_ALPHA) * prev + OBSERVATION_ALPHA * rate
            )
            self._observations += 1

    def autotune_width(
        self,
        widths: Optional[Sequence[int]] = None,
        probe_spec: str = "3d-f4",
        probe_rel_tol: float = 1e-3,
    ) -> int:
        """Probe real pool widths once (service start) and keep the best.

        Runs one small catalogue integrand per candidate width through a
        fresh :class:`~repro.backends.process.ProcessNumpyBackend` (tiny
        chunk grain, so the pool actually fans out) and adopts the width
        with the best wall clock.  A host without usable process pools
        (or a single CPU) skips the probe and pins width 1, which also
        removes ``process`` from the candidate list.
        """
        host_width = resolve_workers(None)
        if not self._process or host_width <= 1:
            self.process_width = 1
            self.autotune_report = {}
            return 1
        if widths is None:
            widths = sorted({2, max(2, host_width // 2), host_width})
        import numpy as np

        from repro.backends.process import ProcessNumpyBackend
        from repro.core.pagani import PaganiConfig, PaganiIntegrator
        from repro.integrands.catalog import named_integrand

        fn = named_integrand(probe_spec)
        ndim = int(probe_spec.split("d")[0])
        bounds = np.array([[0.0, 1.0]] * ndim)
        report: Dict[str, float] = {}
        best_width, best_wall = self.process_width, float("inf")
        for width in widths:
            backend = ProcessNumpyBackend(num_workers=width)
            try:
                cfg = PaganiConfig(
                    rel_tol=probe_rel_tol, backend=backend,
                    chunk_budget=50_000,
                )
                t0 = time.perf_counter()
                result = PaganiIntegrator(cfg).integrate(fn, ndim, bounds)
                wall = time.perf_counter() - t0
            finally:
                backend.close()
            report[str(width)] = wall
            # The probe is deliberately tiny (fast service start), so
            # its s/Meval is dispatch-overhead-dominated — folding it
            # into the family rate would bias routing against the pool.
            # Widths are compared against each other only.
            if wall < best_wall:
                best_width, best_wall = width, wall
        self.process_width = best_width
        self.autotune_report = report
        return best_width

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Observability snapshot (service ``stats()['routing']``)."""
        with self._lock:
            return {
                "process_width": self.process_width,
                "candidates": self._candidates("batch"),
                "decisions": dict(self._decisions),
                "observations": self._observations,
                "observed_s_per_meval": dict(self._observed),
                "autotuned": self.autotune_report is not None,
            }


_shared_router: Optional[BackendRouter] = None
_shared_lock = threading.Lock()


def shared_router() -> BackendRouter:
    """Process-wide router used by the one-shot API surfaces — so
    observed timings from earlier ``integrate(backend="auto")`` calls
    refine later decisions."""
    global _shared_router
    with _shared_lock:
        if _shared_router is None:
            _shared_router = BackendRouter()
        return _shared_router


def is_auto(spec: object) -> bool:
    """Whether a backend spec requests routing."""
    return isinstance(spec, str) and spec == AUTO_SPEC
