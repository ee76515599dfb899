"""Backend routing: pick the cheapest adequate backend per job.

Jobs differ by orders of magnitude: a 100-region 2D probe should not
pay process-pool IPC, and a million-region 6D sweep should not crawl on
single-core numpy.  ``backend="auto"`` routes each job (or fused batch)
instead of pinning one backend for all of them:

1. **Score the job.**  PAGANI evaluates and splits every live region
   in one parallel sweep per iteration, and the first breadth-first
   sweep sets a run's shape: ``splits_for(ndim) ** ndim`` regions, each
   evaluated at the Genz–Malik rule's point count.  A batch sums its
   members' first sweeps.
2. **Price the candidates.**  Predicted first-sweep seconds =
   ``s/Meval × Mevals + per-sweep dispatch overhead``, from the
   constants :data:`S_PER_MEVAL`, :data:`BATCH_GAIN` and
   :data:`SWEEP_OVERHEAD_S` and the pool width.
3. **Dispatch.**  Cheapest predicted candidate wins: numpy for tiny
   jobs, ``process:N`` for big sweeps.  Adequacy is never in question
   (the candidates are bit-identical by the conformance contract); the
   decision only moves *where* the same bits are computed, so it never
   enters cache identity.

A decision is a pure function of the summed first-sweep evaluations,
the context (plain or batch), the pool width and whether a process
pool is available.  Nothing is learned from earlier runs, so the same
job on the same host always routes the same way, whatever ran before
it.  A non-``auto`` override (per-job ``JobSpec.backend``, or an
explicit spec anywhere a backend is accepted) bypasses the policy.
"""

from __future__ import annotations

import threading
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
    "process": 0.11419745649987567,
}

#: batched-throughput gain over batched numpy (the batch benchmark's
#: batched-seconds ratios, frozen from one run on the same host) — the
#: *chunk-grain* effect: numpy keeps the reference decomposition
#: (16M-float chunks) while process batches at its throughput-tuned
#: grain, which wins even serially (cache locality), before any
#: parallel speedup.
BATCH_GAIN = {
    "numpy": 1.0,
    "process": 2.1497454304363384,
}

#: fixed per-sweep dispatch cost (seconds) a backend pays before any
#: evaluation happens: pool hand-off, chunk submission, result stitch.
#: This is what routes tiny jobs to numpy even when a pool is idle.
SWEEP_OVERHEAD_S = {
    "numpy": 0.0,
    "process": 2e-2,
}

#: fraction of ideal speedup a width-W pool retains (stitching and the
#: parent's serial share eat the rest)
PROCESS_PARALLEL_EFFICIENCY = 0.75


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
    """Scores jobs with the static cost model and picks the cheapest.

    Parameters
    ----------
    process_width:
        Pool width the ``process`` candidate is priced (and dispatched)
        at; default ``resolve_workers(None)`` — one worker per CPU.
    process:
        Availability override for tests; ``None`` probes the host.

    Thread-safe: decisions may come from any service shard concurrently.
    """

    def __init__(
        self,
        process_width: Optional[int] = None,
        process: Optional[bool] = None,
    ):
        self.process_width = (
            resolve_workers(None) if process_width is None else int(process_width)
        )
        self._process = (
            process_pool_available() if process is None else bool(process)
        )
        self._lock = threading.Lock()
        self._decisions: Dict[str, int] = {}
        self.last_decision: Optional[RoutingDecision] = None

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
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
        """Predicted first-sweep seconds for one candidate spec
        (``"numpy"`` or ``"process[:N]"``).

        ``context`` is ``"plain"`` for a solo :func:`repro.api.integrate`
        run (every backend keeps the reference chunk decomposition) or
        ``"batch"`` for work executed through the batch scheduler
        (:func:`repro.api.integrate_many`, the service rotation), where
        process switches to its fused grain and gains
        :data:`BATCH_GAIN` over numpy before any parallelism.
        """
        family = spec.partition(":")[0]
        mevals = evals / 1e6
        if family == "process":
            width = int(spec.partition(":")[2] or self.process_width)
            grain = BATCH_GAIN["process"] if context == "batch" else 1.0
            # The bench prior measured *some* pool; scale the serial
            # rate by the batch-grain gain (batch context only) and this
            # width's ideal speedup, degraded by the stitch/serial share
            # — take whichever is more optimistic.
            rate = min(
                S_PER_MEVAL["numpy"]
                / grain
                / max(1.0, width * PROCESS_PARALLEL_EFFICIENCY),
                S_PER_MEVAL["process"] / grain,
            )
        else:
            rate = S_PER_MEVAL[family]
        return rate * mevals + SWEEP_OVERHEAD_S[family]

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
    def stats(self) -> Dict[str, object]:
        """Observability snapshot (service ``stats()['routing']``)."""
        with self._lock:
            return {
                "process_width": self.process_width,
                "candidates": self._candidates("batch"),
                "decisions": dict(self._decisions),
            }


_shared_router: Optional[BackendRouter] = None
_shared_lock = threading.Lock()


def shared_router() -> BackendRouter:
    """Process-wide router used by the one-shot API surfaces; it holds
    the decision counters and the last decision for observability."""
    global _shared_router
    with _shared_lock:
        if _shared_router is None:
            _shared_router = BackendRouter()
        return _shared_router


def is_auto(spec: object) -> bool:
    """Whether a backend spec requests routing."""
    return isinstance(spec, str) and spec == AUTO_SPEC
