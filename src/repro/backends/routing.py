"""Backend routing: ``backend="auto"`` by one measured size threshold.

PAGANI evaluates and splits every live region in one parallel sweep
per iteration, and the first breadth-first sweep sets a run's shape:
``splits_for(ndim) ** ndim`` regions, each evaluated at the Genz–Malik
rule's point count (:func:`first_sweep_evals`; a batch sums its
members').  ``auto`` only picks which host substrate runs those sweeps:

* ``process:<W>`` when a process pool is available, it is at least two
  workers wide (``W`` = the usable CPUs), and the first-sweep
  evaluations reach :data:`PROCESS_MIN_EVALS`;
* ``numpy`` otherwise.

Every candidate computes the same bits (the conformance contract), so
the decision only moves *where* they are computed and never enters
cache identity.  It is a pure function of the job and the host:
nothing is learned from earlier runs, so the same job on the same host
always routes the same way, whatever ran before it.  A non-``auto``
override (per-job ``JobSpec.backend``, or an explicit spec anywhere a
backend is accepted) bypasses the policy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.backends.base import resolve_workers
from repro.backends.process import process_pool_available

#: spec string that selects routing instead of a concrete backend
AUTO_SPEC = "auto"

#: Summed first-sweep evaluations from which ``auto`` sends a job (or a
#: fused batch) to ``process:<W>``.  Picked from fresh-interpreter runs
#: on a 2-CPU host (one call each, pool not pre-started,
#: ``OPENBLAS_NUM_THREADS=1``, rel_tol 1e-4 for batches and 1e-3 for
#: plain runs; median seconds of 5 runs, bits identical on both lanes):
#:
#: =====================================  =========  =====  =========
#: shape                                  evals      numpy  process:2
#: =====================================  =========  =====  =========
#: plain 5D-f4                              290,625  0.088      0.091
#: batch 4D-f2+4D-f4+4D-f5                  410,571  0.253      0.373
#: plain 7D-f4                              527,067  3.661      2.256
#: batch 5D-f4+4D-f4+4D-f5                  564,339  0.235      0.346
#: batch 5D-f4+5D-f5                        581,250  0.748      0.850
#: plain 6D-f4                              610,304  0.370      0.342
#: batch perfbench sweep_auto members       991,200  0.469      0.448
#: plain 8D-f7                            2,630,961  0.112      0.104
#: batch 8D-f7+8D-f3                      5,261,922  0.741      0.898
#: =====================================  =========  =====  =========
#:
#: No single size separates the lanes.  A threshold in (410,571,
#: 527,067] misroutes three shapes for 0.37 s in all; the next-best
#: place, in (581,250, 610,304], misroutes plain 7D-f4 and the 8D batch
#: for 1.56 s.  Pinned to one CPU, a one-worker pool lost to numpy on
#: both batches tried (8D-f7+8D-f3 1.18 s against 0.75 s, 5D-f4+5D-f5
#: 0.82 against 0.74 s), so width 1 never routes to it.  The crossover
#: on hosts with 4 or more cores is unmeasured: there this constant
#: sends more work to numpy than it needs to, and the nightly
#: multi-core routing benchmark is the check.
PROCESS_MIN_EVALS = 500_000


def first_sweep_evals(ndim: int) -> int:
    """Evaluations the first breadth-first sweep performs.

    Mirrors :meth:`repro.core.pagani.PaganiConfig.splits_for` ×
    the Genz–Malik point count: the size the routing threshold is
    compared against.
    """
    from repro.core.pagani import PaganiConfig
    from repro.cubature.rules import get_rule

    return (PaganiConfig().splits_for(ndim) ** ndim) * get_rule(ndim).npoints


@dataclass
class RoutingDecision:
    """Outcome of one routing evaluation (also a debugging artifact)."""

    backend: str  #: resolved spec string, e.g. ``"numpy"``/``"process:4"``
    reason: str
    evals: int = 0  #: summed first-sweep evaluations (0 for an override)

    @property
    def forced(self) -> bool:
        return self.reason == "override"


class BackendRouter:
    """Routes jobs by :data:`PROCESS_MIN_EVALS`.

    Parameters
    ----------
    process_width:
        Pool width ``process`` is dispatched at; default
        ``resolve_workers(None)``, one worker per usable CPU.
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

    def _candidates(self) -> List[str]:
        """The specs ``auto`` can resolve to on this host.  A one-wide
        pool only adds dispatch to numpy's work, so it is never one."""
        if self._process and self.process_width >= 2:
            return ["numpy", f"process:{self.process_width}"]
        return ["numpy"]

    def decide(
        self, ndims: Sequence[int], override: Optional[str] = None
    ) -> RoutingDecision:
        """Route one job (``ndims=[ndim]``) or a fused batch (its
        members' dimensions); ``override`` (non-``auto``) short-circuits."""
        if override is not None and override != AUTO_SPEC:
            decision = RoutingDecision(backend=override, reason="override")
        else:
            evals = sum(first_sweep_evals(ndim) for ndim in ndims)
            big = evals >= PROCESS_MIN_EVALS
            candidates = self._candidates()
            reason = (
                f"{evals} first-sweep evals {'>=' if big else '<'} "
                f"{PROCESS_MIN_EVALS}"
            )
            if len(candidates) == 1:
                reason += ", no pool of 2+ workers"
            decision = RoutingDecision(
                backend=candidates[-1] if big else "numpy",
                reason=reason,
                evals=evals,
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
                "candidates": self._candidates(),
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
