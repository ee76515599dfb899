"""Batched multi-integrand execution on one shared backend.

The paper's PAGANI accelerates a *single* integral; this package makes
*many concurrent integrals* a first-class workload.  The public entry
point is :func:`repro.api.integrate_many`, which builds one
:class:`~repro.core.pagani.PaganiRun` per integrand and hands them to a
:class:`BatchScheduler` that:

* round-robins every live run, one breadth-first iteration per round
  (fairness by construction — no member is ever starved);
* fuses all members' ``EVALUATE`` chunk thunks into a single backend
  submission per round, so parallel backends see one large uniform batch
  instead of N small sweeps;
* lets converged members exit early and free their region memory while
  stragglers keep iterating.

Rule construction is shared through the process-wide
:class:`~repro.cubature.rules.RuleCache`: the Genz–Malik tensors for each
``(backend, ndim)`` pair are materialised once per process, not once per
integral.  See ``docs/batch.md`` for the design discussion and measured
batched-vs-sequential numbers.
"""

from repro.batch.scheduler import (
    BatchMemberError,
    BatchScheduler,
    BatchStats,
)
from repro.cubature.rules import RULE_CACHE, DeviceRule, RuleCache

__all__ = [
    "BatchScheduler",
    "BatchStats",
    "BatchMemberError",
    "RuleCache",
    "RULE_CACHE",
    "DeviceRule",
]
