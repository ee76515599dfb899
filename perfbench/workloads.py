"""Seeded input generators for the three workloads.

Everything the program under test receives — integrand specs,
tolerances, call order and arrival times — comes from here, as a pure
function of ``(seed, seconds)``.  The seed changes order, member
choice among equal-cost options and small tolerance perturbations; it
never changes how much work a workload asks for, so run-to-run spread
measures the program and not the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

#: (spec, rel_tol) solved one after another by ``solve_suite``.  6D-f6 at
#: 1e-3 is left out: through ``integrate()`` with the default initial
#: split it ends ``memory_exhausted``.
SUITE: List[Tuple[str, float]] = [
    ("5D-f4", 1e-4),
    ("5D-f5", 1e-4),
    ("8D-f7", 1e-3),
    ("8D-f3", 1e-3),
]

#: mid-size catalogue members of the ``sweep_auto`` batch (about 2 s of
#: numpy work per call on a 2-CPU host); all have closed-form references
SWEEP_MEMBERS: List[str] = [
    "4D-f2", "5D-f4", "4D-f4", "4D-f5", "3D-f2", "3D-f6", "3D-f4", "3D-f5",
]
SWEEP_REL_TOL = 1e-4
SWEEP_CALLS = 3

#: cheap 2D problems that fill the durable store before the HTTP run
WARM_SPECS: List[str] = ["2D-f1", "2D-f2", "2D-f3", "2D-f4", "2D-f5", "2D-f6", "2D-f7"]
WARM_BASE_TOLS: List[float] = [1e-3, 1e-4]

# ``http_replay``: Poisson arrivals, replays only.  No compute: HTTP,
# queue and cache/store lookups.  The warm set is larger than the
# server's 256-entry LRU, so part of the hits come from the SQLite tier.

#: arrivals per second: a third of the measured capacity.  At 100/s the
#: CPUs idle more between jobs, and waking them on a busy host moved the
#: median latency by up to 90% from run to run; at 150/s by about 20%.
REPLAY_RATE = 150.0
#: distinct jobs primed into the durable store before the run
REPLAY_WARM_JOBS = 400
#: client poll interval for ``GET /v1/jobs/<id>/result``, well under
#: the replay latency so polling does not set it
REPLAY_POLL_S = 0.0005
#: latency limit for goodput
REPLAY_LATENCY_LIMIT_S = 0.25

#: per-call latency limits for goodput on the closed-loop workloads
CLOSED_LATENCY_LIMIT_S = {"solve_suite": 30.0, "sweep_auto": 60.0}

#: seconds of calls in one closed-loop repetition on a 2-CPU host.  A
#: run makes enough whole repetitions to cover ``--seconds`` at this
#: pace, so how much work a run does never depends on the host's speed.
REPETITION_S = {"solve_suite": 7.5, "sweep_auto": 6.0}


def repetitions(name: str, seconds: float) -> int:
    """Whole repetitions of a closed-loop workload in a run of ``seconds``."""
    return max(1, math.ceil(seconds / REPETITION_S[name] - 1e-9))

WORKLOADS = ("solve_suite", "sweep_auto", "http_replay")


@dataclass
class Job:
    """One request of a workload, in the shape ``POST /v1/jobs`` takes."""

    integrand: str
    rel_tol: float
    #: scheduled send time in seconds from the start of the open loop
    at: float = 0.0
    #: index into the warm set: the job it replays, or primes
    warm: int = 0

    def body(self) -> dict:
        return {"integrand": self.integrand, "rel_tol": self.rel_tol}


@dataclass
class HttpPlan:
    warm: List[Job]
    requests: List[Job]


def suite_order(seed: int) -> List[Tuple[str, float]]:
    """The suite in a seeded order (the same four problems every time)."""
    order = list(SUITE)
    random.Random(seed).shuffle(order)
    return order


def sweep_calls(seed: int) -> List[Tuple[List[str], float]]:
    """Three ``integrate_many`` calls: seeded member order, each call with
    its own rel_tol perturbed by under one part in a million."""
    rng = random.Random(seed)
    calls = []
    for _ in range(SWEEP_CALLS):
        members = list(SWEEP_MEMBERS)
        rng.shuffle(members)
        calls.append((members, SWEEP_REL_TOL * (1.0 + 1e-6 * rng.random())))
    return calls


def _warm_set(rng: random.Random, n: int) -> List[Job]:
    jobs: List[Job] = []
    seen = set()
    while len(jobs) < n:
        spec = WARM_SPECS[len(jobs) % len(WARM_SPECS)]
        base = WARM_BASE_TOLS[(len(jobs) // len(WARM_SPECS)) % len(WARM_BASE_TOLS)]
        tol = base * (1.0 + 0.01 * rng.random())
        if (spec, tol) in seen:
            continue
        seen.add((spec, tol))
        jobs.append(Job(spec, tol, warm=len(jobs)))
    return jobs


def arrival_times(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """Poisson arrivals on ``[0, seconds)`` conditioned on their count.

    The count is fixed at ``round(rate * seconds)`` so every seed offers
    the same load; given the count, Poisson arrival times are sorted
    uniform draws.
    """
    n = max(1, int(round(rate * seconds)))
    return sorted(rng.uniform(0.0, seconds) for _ in range(n))


def replay_plan(seed: int, seconds: float) -> HttpPlan:
    """Warm set and arrival schedule of ``http_replay``."""
    rng = random.Random(seed)
    warm = _warm_set(rng, REPLAY_WARM_JOBS)
    requests = []
    for at in arrival_times(rng, REPLAY_RATE, seconds):
        w = warm[rng.randrange(len(warm))]
        requests.append(Job(w.integrand, w.rel_tol, at=at, warm=w.warm))
    return HttpPlan(warm=warm, requests=requests)
