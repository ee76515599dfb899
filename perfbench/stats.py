"""Percentiles, the reporting rule, and the correctness checks."""

from __future__ import annotations

import functools
import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: a percentile is reported only with at least this many samples beyond it
MIN_SAMPLES_BEYOND = 10

#: safety factor on a result's own error estimate, the same rule the
#: cross-integrator differential harness applies to PAGANI
ERROR_SIGMA = 3.0

#: result fields that must replay bit for bit (``result_hex`` keys);
#: wall time is a measurement, not part of the answer
ANSWER_FIELDS = ("estimate", "errorest", "status", "neval", "nregions", "iterations")


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in (0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th."""
    return n - max(1, math.ceil(p / 100.0 * n))


def supported(n: int, p: float) -> bool:
    """Whether ``n`` samples support reporting the ``p``-th percentile."""
    return n > 0 and samples_beyond(n, p) >= MIN_SAMPLES_BEYOND


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; 0.0 for no values."""
    values = list(values)
    return math.exp(statistics.fmean(map(math.log, values))) if values else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def within_own_error(estimate: float, errorest: float, reference: float) -> bool:
    """|estimate - reference| within ``ERROR_SIGMA`` times the reported error.

    An absolute floor keeps an error estimate of exactly zero passable
    when the estimate agrees to round-off.
    """
    allowed = ERROR_SIGMA * max(errorest, 1e-14 * abs(reference))
    return abs(estimate - reference) <= allowed


def same_answer(replayed: Dict, expected: Dict) -> bool:
    """Whether two ``result_hex`` payloads carry the same answer bits."""
    return all(replayed.get(k) == expected.get(k) for k in ANSWER_FIELDS)


def latency_summary(latencies: List[float]) -> Dict[str, float]:
    """Median plus every higher percentile the sample supports."""
    out = {"latency_p50_s": median(latencies), "latency_n": len(latencies)}
    for p in (90, 99):
        if supported(len(latencies), p):
            out[f"latency_p{p}_s"] = percentile(latencies, p)
    return out


@functools.lru_cache(maxsize=None)
def reference_of(spec: str) -> Optional[float]:
    """The catalogue's closed-form reference for ``spec``."""
    from repro.integrands.catalog import named_integrand

    return named_integrand(spec).reference
