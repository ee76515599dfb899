"""Content-addressed result cache.

The **fingerprint contract**: two jobs share a fingerprint iff they are
the *same computation* — same integrand identity, same domain, same
tolerances, same iteration cap, same filtering flag.  Every float
enters the hash as ``float.hex()`` (exact — no decimal rounding can
alias two different tolerances), bounds enter per-component, and the
integrand enters by its canonical catalogue spec (or a callable's
explicit ``cache_key``).  Anything outside the fingerprint (priority,
label, backend, chunk grain) is scheduling metadata and must never
change the numbers, so it is excluded.  The backend and the chunk grain
qualify because every host backend computes the same bits at any grain
(see :mod:`repro.cubature.evaluation`): an entry ``numpy`` wrote serves
a job routed to ``process:2``.

Because the PAGANI run is deterministic for a fixed fingerprint, a cache
hit may *replay* the stored :class:`~repro.core.result.IntegrationResult`
bit-for-bit instead of recomputing it.  The cache hands out deep copies
both ways, so neither the producer nor any consumer can mutate the
stored result.

Eviction is LRU with a fixed entry budget; hits, misses and evictions
are counted for the service stats and the benchmark harness.
"""

from __future__ import annotations

import copy
import hashlib
import json
import threading
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from repro.core.result import IntegrationResult

#: bump when the fingerprint payload layout or the computed bits change,
#: so stale durable entries and disk-serialised fingerprints cannot collide
#: (3: the dimension-major evaluate sweep moved estimates by ULPs;
#: 4: the orbit-sum rule contraction moved them again)
FINGERPRINT_SCHEMA = 4


def job_fingerprint(
    integrand_id: str,
    ndim: int,
    bounds: np.ndarray,
    rel_tol: float,
    abs_tol: float,
    max_iterations: Optional[int],
    relerr_filtering: bool,
    collect_traces: bool = False,
    escalation: Optional[str] = None,
) -> str:
    """SHA-256 over the canonical job payload (see module docstring).

    ``escalation`` is the effective policy descriptor when baseline
    escalation is armed for the job (``None`` = off).  An armed policy
    can change the numbers (a failed PAGANI run is re-run down the
    ladder), so it must change the fingerprint: escalated and native
    results never alias.  The key is *omitted* when off, keeping every
    pre-escalation fingerprint byte-stable.
    """
    payload = {
        "schema": FINGERPRINT_SCHEMA,
        "integrand": integrand_id,
        "ndim": int(ndim),
        "bounds": [
            [float(lo).hex(), float(hi).hex()] for lo, hi in np.asarray(bounds)
        ],
        "rel_tol": float(rel_tol).hex(),
        "abs_tol": float(abs_tol).hex(),
        "max_iterations": None if max_iterations is None else int(max_iterations),
        "relerr_filtering": bool(relerr_filtering),
        # Traces do not change the numbers, but a replayed result must
        # carry the same payload shape the submitting service would have
        # computed — a shared cache must not hand trace-laden results to
        # a trace-free service (or vice versa).
        "collect_traces": bool(collect_traces),
    }
    if escalation is not None:
        payload["escalation"] = str(escalation)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


class ResultCache:
    """Thread-safe LRU cache of finished integration results."""

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, IntegrationResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[IntegrationResult]:
        """A deep copy of the cached result, or None (counted miss)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
        # Deep-copying a trace-laden result can take milliseconds; doing
        # it under the lock would stall every shard and HTTP thread
        # behind one large replay.  Copying outside is safe because
        # stored entries are private deep copies nobody mutates.
        return copy.deepcopy(entry)

    def put(self, fingerprint: str, result: IntegrationResult) -> None:
        """Store (a deep copy of) a finished result, evicting LRU."""
        snapshot = copy.deepcopy(result)  # outside the lock, see get()
        with self._lock:
            if fingerprint in self._entries:
                self._entries.move_to_end(fingerprint)
            self._entries[fingerprint] = snapshot
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 before the first lookup)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
            }
