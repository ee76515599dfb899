"""Shared infrastructure for the figure-reproduction benchmarks.

Every figure in the paper's evaluation section has a ``bench_figN_*.py``
module that regenerates the corresponding series.  This module provides:

* quick/full mode switching (``REPRO_BENCH_FULL=1`` extends the digit
  sweeps toward the paper's ranges; the default quick mode keeps the whole
  suite laptop-friendly),
* a sweep runner executing (integrand × method × digits) grids with the
  scaled virtual device, cached across benchmark modules (Figs. 4, 5, 6
  and 9 are different projections of the same sweep — the paper's own
  figures share runs the same way),
* result rows, CSV artifact writing into ``benchmarks/results/``, and
  aligned text tables printed with a paper-vs-measured header,
* the wall-clock scenario benchmarks (backends, batch, service, process,
  http, routing, scenarios): each writes ``results/BENCH_<scenario>.json``
  in one row/check schema, and the run exits 1 if any row or check fails
  its claim.  Run them directly::

      PYTHONPATH=src python benchmarks/harness.py all                 # full
      PYTHONPATH=src python benchmarks/harness.py all --smoke --out /tmp/bench

Times reported for GPU methods are the *simulated* device seconds (so the
series are deterministic and hardware independent); Cuhre is charged to the
CPU cost model.  Wall-clock timing of the underlying Python kernels is
measured separately by pytest-benchmark in ``bench_kernels.py``.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.baselines.cuhre import CuhreConfig, CuhreIntegrator
from repro.baselines.qmc import QmcConfig, QmcIntegrator
from repro.baselines.two_phase import TwoPhaseConfig, TwoPhaseIntegrator
from repro.core.pagani import PaganiConfig, PaganiIntegrator
from repro.core.result import IntegrationResult
from repro.gpu.device import DeviceSpec, VirtualDevice
from repro.integrands.base import Integrand
from repro.integrands.paper import (
    f1_oscillatory,
    f3_corner_peak,
    f4_gaussian,
    f5_c0,
    f6_discontinuous,
    f7_box11,
    f8_box15,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: device memory for the GPU methods in benchmarks.  The paper's V100 has
#: 16 GiB; Python wall-clock cannot reach the region counts 16 GiB admits,
#: so the benches run a memory-scaled V100 — every memory-driven phenomenon
#: (two-phase failure digits, PAGANI threshold filtering) appears at
#: proportionally lower digit counts with the *ordering* preserved.
BENCH_DEVICE_MB = 192


def full_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "0") not in ("0", "", "false")


def bench_device() -> VirtualDevice:
    return VirtualDevice(DeviceSpec.scaled(mem_mb=BENCH_DEVICE_MB))


# ---------------------------------------------------------------------------
# Integrand catalogue for the sweeps
# ---------------------------------------------------------------------------
def sweep_integrands() -> Dict[str, Integrand]:
    """The three integrand/dimension combos the paper's Figs. 4, 5, 9 use."""
    f6 = f6_discontinuous(6)
    return {
        "5D f4": f4_gaussian(5),
        "6D f6": f6,
        "8D f7": f7_box11(8),
    }


def speedup_integrands() -> Dict[str, Integrand]:
    """Fig. 6 combos."""
    return {
        "5D f5": f5_c0(5),
        "6D f6": f6_discontinuous(6),
        "8D f7": f7_box11(8),
    }


def qmc_integrands() -> Dict[str, Integrand]:
    """Fig. 7 combos (quick subset; full mode adds the rest).

    5D f1 is an addition to the paper's set: at laptop scale the 8D f1
    integral (|I| ~ 1e-5) is beyond both methods' scaled budgets, so the
    5-D member demonstrates the oscillatory/filtering-off behaviour while
    8D f1 documents the double-DNF (see EXPERIMENTS.md).
    """
    base = {
        "3D f3": f3_corner_peak(3),
        "5D f5": f5_c0(5),
        "5D f1": f1_oscillatory(5),
        "8D f1": f1_oscillatory(8),
    }
    if full_mode():
        base.update(
            {
                "6D f6": f6_discontinuous(6),
                "8D f3": f3_corner_peak(8),
                "8D f5": f5_c0(8),
                "8D f7": f7_box11(8),
                "8D f8": f8_box15(8),
            }
        )
    return base


#: per-integrand digit ranges (quick / full).  The paper sweeps 3..10-11 on
#: a 16 GiB V100 + C implementations; the quick ranges keep wall time sane
#: while preserving every qualitative transition the figures show.
QUICK_DIGITS = {
    "5D f4": [3, 4, 5],
    "6D f6": [3, 4],
    "8D f7": [3, 4],
    "5D f5": [3, 4, 5],
    "3D f3": [3, 4, 5, 6],
    "5D f1": [3, 4, 5],
    "8D f1": [3, 4],
    "8D f3": [3, 4],
    "8D f5": [3, 4],
    "8D f8": [3, 4],
}
FULL_DIGITS = {
    "5D f1": [3, 4, 5, 6],
    "5D f4": [3, 4, 5, 6, 7],
    "6D f6": [3, 4, 5, 6, 7],
    "8D f7": [3, 4, 5, 6],
    "5D f5": [3, 4, 5, 6],
    "3D f3": [3, 4, 5, 6, 7, 8],
    "8D f1": [3, 4, 5],
    "8D f3": [3, 4, 5],
    "8D f5": [3, 4, 5],
    "8D f8": [3, 4, 5],
}

#: f6's cut planes sit on multiples of 0.1, so a 10-per-axis initial split
#: makes every region boundary-aligned (no cell ever straddles the
#: discontinuity).  The paper does not state its initial split; alignment
#: is the only regime in which its reported 10+ digit convergence on f6 is
#: reachable at all (see EXPERIMENTS.md).
INITIAL_SPLITS = {"6D f6": 10}

#: Cuhre evaluation budget in quick mode (paper: 1e9; DNF is reported the
#: same way the paper reports non-converging runs).
CUHRE_QUICK_MAX_EVAL = 8_000_000
CUHRE_FULL_MAX_EVAL = 100_000_000


def digits_for(name: str) -> List[int]:
    table = FULL_DIGITS if full_mode() else QUICK_DIGITS
    return table.get(name, [3, 4, 5])


# ---------------------------------------------------------------------------
# Sweep rows
# ---------------------------------------------------------------------------
@dataclass
class SweepRow:
    integrand: str
    method: str
    digits: int
    converged: bool
    status: str
    estimate: float
    errorest: float
    true_rel_error: float
    sim_ms: float
    nregions: int
    neval: int


def _run_method(
    method: str, integrand: Integrand, tau_rel: float, initial_splits: Optional[int]
) -> IntegrationResult:
    filtering = integrand.sign_definite
    if method == "pagani":
        cfg = PaganiConfig(
            rel_tol=tau_rel,
            relerr_filtering=filtering,
            max_iterations=35,
        )
        if initial_splits is not None:
            cfg.initial_splits = initial_splits
        return PaganiIntegrator(cfg, device=bench_device()).integrate(
            integrand, integrand.ndim
        )
    if method == "two_phase":
        cfg = TwoPhaseConfig(
            rel_tol=tau_rel,
            relerr_filtering=filtering,
            max_phase1_iterations=35,
        )
        if initial_splits is not None:
            cfg.initial_splits = initial_splits
        return TwoPhaseIntegrator(cfg, device=bench_device()).integrate(
            integrand, integrand.ndim
        )
    if method == "cuhre":
        budget = CUHRE_FULL_MAX_EVAL if full_mode() else CUHRE_QUICK_MAX_EVAL
        cfg = CuhreConfig(rel_tol=tau_rel, max_eval=budget)
        return CuhreIntegrator(cfg).integrate(integrand, integrand.ndim)
    if method == "qmc":
        budget = 500_000_000 if full_mode() else 40_000_000
        cfg = QmcConfig(rel_tol=tau_rel, max_eval=budget)
        return QmcIntegrator(cfg, device=bench_device()).integrate(
            integrand, integrand.ndim
        )
    raise ValueError(method)


def run_sweep(
    integrands: Dict[str, Integrand],
    methods: Sequence[str],
    digits_override: Optional[Dict[str, List[int]]] = None,
) -> List[SweepRow]:
    rows: List[SweepRow] = []
    for name, integrand in integrands.items():
        digit_list = (digits_override or {}).get(name) or digits_for(name)
        splits = INITIAL_SPLITS.get(name)
        for digits in digit_list:
            tau = 10.0**-digits
            for method in methods:
                res = _run_method(method, integrand, tau, splits)
                true_rel = (
                    abs(res.estimate - integrand.reference)
                    / abs(integrand.reference)
                    if integrand.reference
                    else float("nan")
                )
                rows.append(
                    SweepRow(
                        integrand=name,
                        method=method,
                        digits=digits,
                        converged=res.converged,
                        status=res.status.value,
                        estimate=res.estimate,
                        errorest=res.errorest,
                        true_rel_error=true_rel,
                        sim_ms=res.sim_seconds * 1e3,
                        nregions=res.nregions,
                        neval=res.neval,
                    )
                )
    return rows


# ---------------------------------------------------------------------------
# Cross-module sweep cache (Figs. 4/5/6/9 share runs)
#
# Two layers: an in-process dict (one pytest invocation runs every bench
# module in a single process) and a JSON file under results/ keyed by the
# sweep configuration, so iterating on bench code does not recompute the
# multi-minute sweeps.  Delete results/sweep_cache_*.json to force a rerun.
# ---------------------------------------------------------------------------
_SWEEP_CACHE: Dict[str, List[SweepRow]] = {}


def _cache_path(key: str) -> Path:
    mode = "full" if full_mode() else "quick"
    return RESULTS_DIR / f"sweep_cache_{key}_{mode}_{BENCH_DEVICE_MB}mb.json"


def _load_cached(key: str) -> Optional[List[SweepRow]]:
    import json

    path = _cache_path(key)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return [SweepRow(**row) for row in data]


def _store_cached(key: str, rows: List[SweepRow]) -> None:
    import dataclasses
    import json

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    _cache_path(key).write_text(
        json.dumps([dataclasses.asdict(r) for r in rows])
    )


def _cached_sweep(key: str, compute) -> List[SweepRow]:
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    rows = _load_cached(key)
    if rows is None:
        rows = compute()
        _store_cached(key, rows)
    _SWEEP_CACHE[key] = rows
    return rows


def main_sweep() -> List[SweepRow]:
    """The Fig. 4/5/9 sweep: 3 integrands × {pagani, two_phase, cuhre}."""
    return _cached_sweep(
        "main",
        lambda: run_sweep(sweep_integrands(), ("pagani", "two_phase", "cuhre")),
    )


def speedup_sweep() -> List[SweepRow]:
    """The Fig. 6 sweep.  6D f6 and 8D f7 overlap with the main sweep, so
    those rows are reused (the paper's figures share runs the same way) and
    only 5D f5 is computed fresh."""

    def compute() -> List[SweepRow]:
        main_rows = main_sweep()
        shared = {"6D f6", "8D f7"}
        fresh = {
            k: v for k, v in speedup_integrands().items() if k not in shared
        }
        rows = [r for r in main_rows if r.integrand in shared]
        rows += run_sweep(fresh, ("pagani", "two_phase", "cuhre"))
        return rows

    return _cached_sweep("speedup", compute)


def qmc_sweep() -> List[SweepRow]:
    """The Fig. 7 sweep: PAGANI vs QMC."""
    return _cached_sweep(
        "qmc_v2", lambda: run_sweep(qmc_integrands(), ("pagani", "qmc"))
    )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def write_csv(rows: Iterable[SweepRow], filename: str) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / filename
    rows = list(rows)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "integrand", "method", "digits", "converged", "status",
                "estimate", "errorest", "true_rel_error", "sim_ms",
                "nregions", "neval",
            ]
        )
        for r in rows:
            writer.writerow(
                [
                    r.integrand, r.method, r.digits, int(r.converged),
                    r.status, f"{r.estimate:.15g}", f"{r.errorest:.6g}",
                    f"{r.true_rel_error:.6g}", f"{r.sim_ms:.6g}",
                    r.nregions, r.neval,
                ]
            )
    return path


def print_table(title: str, header: Sequence[str], body: Sequence[Sequence[str]],
                paper_note: str = "") -> None:
    print(f"\n=== {title} ===")
    if paper_note:
        print(f"paper: {paper_note}")
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in body)) if body else len(str(header[i]))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in body:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def select(rows: Iterable[SweepRow], integrand: str, method: str) -> List[SweepRow]:
    return [r for r in rows if r.integrand == integrand and r.method == method]


def max_converged_digits(rows: Iterable[SweepRow], integrand: str, method: str) -> int:
    """Highest digit count at which the method both converged and was
    truthful (true error within 3x of the tolerance)."""
    best = 0
    for r in select(rows, integrand, method):
        if r.converged and (
            math.isnan(r.true_rel_error)
            or r.true_rel_error <= 3.0 * 10.0**-r.digits
        ):
            best = max(best, r.digits)
    return best


def fmt_e(x: float) -> str:
    return f"{x:.2e}" if np.isfinite(x) else "-"


# ---------------------------------------------------------------------------
# Scenario benchmarks: benchmarks/results/BENCH_<scenario>.json
#
# Every wall-clock and agreement claim the repo makes is measured by one
# scenario function in SCENARIOS.  A scenario returns rows in one schema
# (ROW_FIELDS) and the checks (CHECK_FIELDS) its claims need; run(),
# write(), print_payload() and problems() serve every scenario alike.
#
#   PYTHONPATH=src python benchmarks/harness.py all --smoke --out /tmp/bench
#   PYTHONPATH=src python benchmarks/harness.py service http
# ---------------------------------------------------------------------------
#: one benchmark row: ``wall_s`` is wall-clock seconds for the lane's
#: whole workload, ``neval`` the integrand evaluations its results report
#: (cache replays report the evaluations they serve), and ``agrees`` is
#: True/False against the scenario's reference or None where the row is
#: the reference or has none.
ROW_FIELDS = (
    "scenario", "workload", "lane", "wall_s", "neval", "s_per_meval",
    "converged", "agrees",
)
#: one expectation: a check that is not ``enforced`` (e.g. a multi-core
#: speedup on a small host) is recorded but never fatal
CHECK_FIELDS = ("name", "value", "bound", "enforced", "ok")

#: the only rate rule: on the backends scenario, numpy's median s/Meval
#: may be at most this multiple of the committed baseline's.  Generous on
#: purpose: the smoke workload differs from the committed one and shared
#: runners jitter, but real pathologies blow through 3x anyway.
RATE_TOLERANCE = 3.0

BATCH_REL_TOL = 1e-4
BATCH_MAX_ITERATIONS = 30

#: service/HTTP: duplicate factor of the job mix — every unique job
#: appears this many times, so a perfect cache turns K runs into 1 run +
#: (K-1) replays
SERVICE_DUPLICATE_FACTOR = 8
SERVICE_SMOKE_DUPLICATE_FACTOR = 3
HTTP_SMOKE_DUPLICATE_FACTOR = 5
SERVICE_MAX_CONCURRENT = 4
SERVICE_MIN_CACHE_SPEEDUP = 5.0
HTTP_MIN_WARM_HIT_RATE = 0.5
HTTP_MIN_RESTART_HIT_RATE = 0.9

#: process: the >=3x-over-numpy expectation only applies on hosts with
#: at least this many cores (a small host records the speedup honestly)
PROCESS_BENCH_MIN_CORES = 4
PROCESS_BENCH_MIN_SPEEDUP = 3.0
PROCESS_REL_TOL = 1e-4
PROCESS_MAX_ITERATIONS = 35

#: routing: auto wall clock may exceed the best fixed backend by at most
#: this factor (smoke runs relax it: timer noise on sub-second traces is
#: larger than the margin under test)
ROUTING_AUTO_MAX_RATIO = 1.10
ROUTING_AUTO_MAX_RATIO_SMOKE = 1.50
ROUTING_TINY_REL_TOL = 1e-3
#: every tiny-trace lane takes tens of milliseconds, so each is timed
#: as the median of this many repetitions (the fused sweep runs once)
ROUTING_TINY_REPEATS = 5

#: workload space: one canonical transform spec per family
SCENARIO_TRANSFORMS = (
    "semi_infinite(3D-f4, scale=2.0)",
    "infinite(2D-genz-gaussian, scale=1.5)",
    "gaussian_measure(2D-f4, mean=0.5, sigma=0.8)",
)
SCENARIO_SWEEP = "sweep:gaussian_measure(2D-f4, sigma=0.5;0.8;1.0)"
#: watchdog=1 forces the PAGANI attempt to fail so the ladder runs; the
#: rung tolerance is reachable by two_phase
SCENARIO_ESCALATION = {
    "spec": "3D-f4",
    "rel_tol": 1e-6,
    "escalation": "two_phase>qmc;watchdog=1",
}
SCENARIOS_REL_TOL = 1e-4


def _row(workload: str, lane: str, wall_s: float, results,
         agrees: Optional[bool]) -> dict:
    """A row for the results one lane produced on one workload."""
    neval = sum(int(r.neval) for r in results)
    return {
        "workload": workload,
        "lane": lane,
        "wall_s": wall_s,
        "neval": neval,
        "s_per_meval": wall_s / max(neval, 1) * 1e6,
        "converged": all(r.converged for r in results),
        "agrees": agrees,
    }


def _check(name: str, value, bound, ok: bool, enforced: bool = True) -> dict:
    return {
        "name": name, "value": value, "bound": bound,
        "enforced": bool(enforced), "ok": bool(ok),
    }


def _timed(fn, *args, **kwargs) -> tuple:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _same_bits(a, b) -> bool:
    """The bit-identity contract (any backend, any chunk grain)."""
    return (
        a.estimate == b.estimate and a.errorest == b.errorest
        and a.iterations == b.iterations and a.neval == b.neval
    )


#: fixed lane order, numpy (the reference) first; in the routing
#: scenario auto runs last, right after the process lane closes its pool
LANE_ORDER = ("numpy", "threaded", "process")


def _host_lanes() -> List[str]:
    """Usable backends on this host, in LANE_ORDER."""
    from repro.backends import available_backends

    rank = {spec: i for i, spec in enumerate(LANE_ORDER)}
    return sorted(available_backends(),
                  key=lambda spec: (rank.get(spec, len(rank)), spec))


def _warm_rules(members) -> None:
    """Build the host-side rule cache so no timed lane pays for it."""
    from repro.cubature.rules import get_rule

    for f in members:
        get_rule(f.ndim)


def _catalogue(specs) -> List[Integrand]:
    from repro.integrands.catalog import named_integrand

    return [named_integrand(spec) for spec in specs]


# --- backends: the fig5/fig6 PAGANI workloads once per backend --------------
def scenario_backends(smoke: bool) -> tuple:
    """Per-backend wall time; host lanes are bit-identical to numpy."""
    names = ["3D f4"] if smoke else list(
        {**sweep_integrands(), **speedup_integrands()}
    )
    # The catalogue builds the same integrands the figure sweeps use, and
    # gives each its canonical spec: what the process backend ships.
    integrands = dict(zip(names, _catalogue(n.replace(" ", "-") for n in names)))
    rows, reference = [], {}
    for spec in _host_lanes():
        for name, f in integrands.items():
            for digits in [3] if smoke else digits_for(name):
                cfg = PaganiConfig(
                    rel_tol=10.0**-digits,
                    relerr_filtering=f.sign_definite,
                    max_iterations=35,
                    backend=spec,
                )
                if name in INITIAL_SPLITS:
                    cfg.initial_splits = INITIAL_SPLITS[name]
                res = PaganiIntegrator(cfg, device=bench_device()).integrate(
                    f, f.ndim
                )
                workload = f"{name} d{digits}"
                base = reference.setdefault(workload, res)
                rows.append(_row(
                    workload, spec, res.wall_seconds, [res],
                    None if base is res else _same_bits(res, base),
                ))
    return rows, []


# --- batch: integrate_many vs a loop of integrate() --------------------------
def batch_bench_members(smoke: bool = False) -> List[Integrand]:
    """The batch workload: all six Genz families × several dimensions."""
    from repro.integrands.genz import GenzFamily, make_genz

    dims = (2, 3) if smoke else (2, 3, 5, 6)
    families = (
        [GenzFamily.GAUSSIAN, GenzFamily.PRODUCT_PEAK]
        if smoke
        else list(GenzFamily)
    )
    return [
        make_genz(fam, ndim, seed=seed)
        for seed, (fam, ndim) in enumerate(
            (f, d) for f in families for d in dims
        )
    ]


def scenario_batch(smoke: bool) -> tuple:
    """Sequential vs batched throughput per backend; every batched lane
    reproduces the sequential bits exactly."""
    from repro.api import integrate, integrate_many
    from repro.backends import get_backend

    members = batch_bench_members(smoke=smoke)
    _warm_rules(members)
    opts = dict(rel_tol=BATCH_REL_TOL, max_iterations=BATCH_MAX_ITERATIONS)
    rows, reference = [], None
    for spec in _host_lanes():
        bk = get_backend(spec)
        seq, t_seq = _timed(
            lambda: [integrate(f, f.ndim, backend=bk, **opts) for f in members]
        )
        bat, t_bat = _timed(integrate_many, members, backend=bk, **opts)
        if reference is None:
            reference = seq
        rows += [
            _row("sequential", spec, t_seq, seq,
                 None if seq is reference
                 else all(map(_same_bits, seq, reference))),
            _row("batched", spec, t_bat, bat, all(map(_same_bits, bat, seq))),
        ]
    return rows, []


# --- service: duplicate-heavy job mix through IntegrationService -------------
def service_bench_jobs(smoke: bool = False) -> List[dict]:
    """The unique jobs of the duplicate-heavy mix (jobs-file shape).

    The fig5/fig6 paper workloads without 6D f6, which needs its aligned
    initial split to fit in memory.
    """
    if smoke:
        combos = [("3D-f4", 3, 2), ("3D-f3", 3, 1)]
    else:
        combos = [
            ("5D-f4", 3, 3),
            ("5D-f4", 4, 2),
            ("5D-f5", 3, 3),
            ("5D-f5", 4, 1),
            ("8D-f7", 3, 2),
        ]
    return [
        {
            "integrand": spec,
            "rel_tol": 10.0 ** -digits,
            "priority": priority,
            "label": f"{spec} d{digits}",
            "max_iterations": 35,
        }
        for spec, digits, priority in combos
    ]


def _duplicate_mix(unique: List[dict], k: int) -> tuple:
    """(mix, references): the jobs interleaved k times (A B C A B C ...),
    so duplicates arrive while their twin may still be in flight, and the
    cold integrate() results every served result must reproduce bit for
    bit."""
    from repro.api import integrate

    references = {}
    for job, f in zip(unique, _catalogue(j["integrand"] for j in unique)):
        references[job["label"]] = integrate(
            f, f.ndim, rel_tol=job["rel_tol"],
            max_iterations=job["max_iterations"],
        )
    return [dict(job) for _ in range(k) for job in unique], references


def _serve_waves(jobs: List[dict], cache: bool, waves: int, shards: int) -> list:
    """[(handles, wall)] for ``waves`` passes of the mix through one service."""
    from repro.api import serve_jobs
    from repro.service import IntegrationService

    service = IntegrationService(
        max_concurrent=SERVICE_MAX_CONCURRENT, backend="numpy", cache=cache,
        shards=shards,
    )
    try:
        return [_timed(serve_jobs, jobs, service=service) for _ in range(waves)]
    finally:
        service.shutdown(wait=True)


def _priority_order(smoke: bool) -> List[int]:
    """Completion order of equal-work jobs submitted all at once."""
    from repro.service import IntegrationService

    spec, digits = ("3D-f4", 3) if smoke else ("5D-f4", 4)
    service = IntegrationService(max_concurrent=4, backend="numpy", cache=False)
    try:
        handles = {
            p: service.submit(
                spec, rel_tol=10.0 ** -digits, priority=p, max_iterations=35,
                label=f"prio{p}",
            )
            for p in (1, 2, 4, 8)
        }
        service.wait_all()
    finally:
        service.shutdown(wait=True)
    return sorted(handles, key=lambda p: handles[p].stats.completion_index)


def scenario_service(smoke: bool) -> tuple:
    """Cache-hit speedup, bit-identical replays, priority order.

    Each workload runs the mix with the cache off, then twice against one
    cache-enabled service: wave 1 is served by misses plus in-flight
    coalescing, wave 2 entirely by LRU replays.  The 2-shard workload
    shows the claims do not depend on the shard count.
    """
    k = SERVICE_SMOKE_DUPLICATE_FACTOR if smoke else SERVICE_DUPLICATE_FACTOR
    mix, references = _duplicate_mix(service_bench_jobs(smoke=smoke), k)
    rows, checks = [], []
    for shards in (1, 2):
        workload = "duplicate mix" + ("" if shards == 1 else ", 2 shards")
        (no_cache,) = _serve_waves(mix, cache=False, waves=1, shards=shards)
        cold, warm = _serve_waves(mix, cache=True, waves=2, shards=shards)
        for lane, (handles, wall) in (
            ("no_cache", no_cache), ("with_cache", cold), ("warm_replay", warm)
        ):
            results = [h.result(timeout=0) for h in handles]
            rows.append(_row(workload, lane, wall, results, all(
                _same_bits(r, references[h.spec.label])
                for h, r in zip(handles, results)
            )))
        speedup = no_cache[1] / cold[1]
        checks.append(_check(
            f"{workload}: cache speedup", speedup, SERVICE_MIN_CACHE_SPEEDUP,
            speedup >= SERVICE_MIN_CACHE_SPEEDUP,
            enforced=shards == 1 and not smoke,
        ))
        # A cold-wave cache_hit is an LRU hit or a coalesced duplicate.
        # Concurrent admission may start one run per shard for the same
        # job, never more, so all but shards x unique jobs are served.
        served = sum(h.cache_hit for h in cold[0])
        floor = len(mix) - shards * len(references)
        hits = sum(h.cache_hit for h in warm[0])
        checks += [
            _check(f"{workload}: duplicates served without recompute",
                   served, floor, served >= floor),
            _check(f"{workload}: warm replay cache hits", hits, len(mix),
                   hits == len(mix)),
        ]
    order = _priority_order(smoke)
    checks.append(_check(
        "priority completion order", order, [8, 4, 2, 1], order == [8, 4, 2, 1]
    ))
    return rows, checks


# --- http: cold / warm / restart-warm waves over real HTTP -------------------
def _http_json(method: str, url: str, body: Optional[dict] = None) -> tuple:
    """One JSON request against the bench server; (status, payload)."""
    import urllib.error
    import urllib.request

    req = urllib.request.Request(
        url, method=method,
        data=None if body is None else json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _http_wave(server, lane: str, mix: List[dict], references: dict) -> tuple:
    """POST the whole trace, poll every result; (row, cache hits)."""
    from types import SimpleNamespace

    from repro.service.store import result_to_payload

    t0 = time.perf_counter()
    job_ids = []
    for job in mix:
        code, body = _http_json("POST", server.url + "/v1/jobs", job)
        if code != 202:
            raise RuntimeError(f"POST /v1/jobs -> {code}: {body}")
        job_ids.append(body["job_id"])
    results = []
    for jid in job_ids:
        while True:
            code, body = _http_json("GET", f"{server.url}/v1/jobs/{jid}/result")
            if code == 200:
                results.append(body)
                break
            if code != 409:
                raise RuntimeError(f"job {jid}: result -> {code}: {body}")
            time.sleep(0.02)
    wall = time.perf_counter() - t0

    agrees = True
    for job, res in zip(mix, results):
        ref = result_to_payload(references[job["label"]])
        agrees &= all(
            res["result_hex"][field] == ref[field]
            for field in ("estimate", "errorest", "iterations", "neval")
        )
    served = [
        SimpleNamespace(neval=res["result_hex"]["neval"],
                        converged=res["result"]["converged"])
        for res in results
    ]
    row = _row("duplicate trace", lane, wall, served, agrees)
    return row, sum(1 for res in results if res["cache_hit"])


def scenario_http(smoke: bool) -> tuple:
    """Durable-store replays over HTTP, bit-identical to cold integrate().

    cold: fresh server and empty cache dir (uniques compute, duplicates
    coalesce or hit the LRU); warm: the same trace again (LRU replays);
    restart_warm: a new server on the same cache dir with an empty LRU, so
    every replay comes from the SQLite tier (float.hex over the wire).
    """
    import shutil
    import tempfile

    from repro.api import serve_http

    unique = service_bench_jobs(smoke=smoke)
    k = HTTP_SMOKE_DUPLICATE_FACTOR if smoke else SERVICE_DUPLICATE_FACTOR
    mix, references = _duplicate_mix(unique, k)
    cache_dir = tempfile.mkdtemp(prefix="pagani-http-bench-")
    server_kwargs = dict(
        host="127.0.0.1", port=0, max_concurrent=SERVICE_MAX_CONCURRENT,
        backend="numpy", cache_dir=cache_dir, max_queued=len(mix) + 8,
    )
    waves = {}
    try:
        for lanes in (("cold", "warm"), ("restart_warm",)):
            server = serve_http(**server_kwargs)
            try:
                for lane in lanes:
                    waves[lane] = _http_wave(server, lane, mix, references)
                _, metrics = _http_json("GET", server.url + "/metrics")
            finally:
                server.close()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    rows = [row for row, _ in waves.values()]
    warm_rate = waves["warm"][1] / len(mix)
    restart_hits = waves["restart_warm"][1]
    # metrics of the restarted server: every hit it served was durable,
    # from one store entry per unique job
    durable_hits = metrics["service"]["cache"]["durable_hits"]
    durable_entries = metrics["service"]["cache"]["durable"]["entries"]
    checks = [
        _check("warm hit rate", warm_rate, HTTP_MIN_WARM_HIT_RATE,
               warm_rate >= HTTP_MIN_WARM_HIT_RATE),
        _check("restart_warm hit rate", restart_hits / len(mix),
               HTTP_MIN_RESTART_HIT_RATE,
               restart_hits / len(mix) >= HTTP_MIN_RESTART_HIT_RATE),
        _check("restart_warm fresh runs", len(mix) - restart_hits, 0,
               restart_hits == len(mix)),
        _check("restart_warm durable hits", durable_hits, len(unique),
               durable_hits >= len(unique)),
        _check("restart_warm durable entries", durable_entries, len(unique),
               durable_entries == len(unique)),
    ]
    return rows, checks


# --- process: the multi-integrand batch per host backend ---------------------
def process_bench_members(smoke: bool = False) -> List[Integrand]:
    """The fig5/fig6 multi-integrand workload, by catalogue spec, so the
    process backend ships every chunk to its worker pool."""
    return _catalogue(["3d-f4"] * 2 if smoke else ["5d-f4", "5d-f5", "8d-f7"] * 3)


def _fused_sweep(members, backend) -> list:
    from repro.api import integrate_many

    return integrate_many(
        members, rel_tol=PROCESS_REL_TOL, backend=backend,
        max_iterations=PROCESS_MAX_ITERATIONS,
    )


def scenario_process(smoke: bool) -> tuple:
    """Process-backend speedup over numpy, and its numerics contract:
    plain and batched results on every lane are bit-identical to
    sequential numpy."""
    from repro.api import integrate
    from repro.backends import get_backend

    members = process_bench_members(smoke=smoke)
    _warm_rules(members)
    opts = dict(rel_tol=PROCESS_REL_TOL, max_iterations=PROCESS_MAX_ITERATIONS)
    references = [integrate(f, f.ndim, **opts) for f in members]
    rows, walls = [], {}
    for spec in _host_lanes():
        results, walls[spec] = _timed(_fused_sweep, members, get_backend(spec))
        rows.append(_row("fig5/fig6 batch", spec, walls[spec], results,
                         all(map(_same_bits, results, references))))
    if "process" not in walls:
        return rows, []
    probe = members[0]
    plain, wall = _timed(integrate, probe, probe.ndim, backend="process", **opts)
    rows.append(_row(f"plain {probe.spec}", "process", wall, [plain],
                     _same_bits(plain, references[0])))
    speedup = walls["numpy"] / walls["process"]
    cpus = os.cpu_count() or 1
    return rows, [_check(
        "process speedup vs numpy", speedup, PROCESS_BENCH_MIN_SPEEDUP,
        speedup >= PROCESS_BENCH_MIN_SPEEDUP,
        enforced=cpus >= PROCESS_BENCH_MIN_CORES,
    )]


# --- routing: auto vs every fixed backend -----------------------------------
def routing_tiny_trace(smoke: bool = False) -> List[Integrand]:
    """Small-job traffic: the shape that punishes a pinned pool."""
    return _catalogue(
        ["3d-f4"] * 3 if smoke
        else ["2d-f4", "3d-f4", "3d-f3", "2d-f2", "3d-f2"] * 2
    )


def _tiny_trace(members, backend) -> list:
    from repro.api import integrate

    return [
        integrate(f, f.ndim, rel_tol=ROUTING_TINY_REL_TOL, backend=backend)
        for f in members
    ]


def _sweep_pool(spec, bk, members):
    """The process pool a fused-sweep lane fans out to, or ``None``: the
    lane's own instance, or for ``auto`` the shared instance it routes
    the batch to (routing is a pure function of the jobs and the host,
    so a fresh router answers for the process-wide one)."""
    from repro.backends import get_backend
    from repro.backends.process import ProcessNumpyBackend
    from repro.backends.routing import BackendRouter

    if spec == "auto":
        routed = BackendRouter().decide([f.ndim for f in members])
        bk = get_backend(routed.backend)
    return bk if isinstance(bk, ProcessNumpyBackend) else None


def scenario_routing(smoke: bool) -> tuple:
    """``backend="auto"`` within a bound of the best fixed backend on a
    tiny-job trace and the fused fig5/fig6 sweep.

    On the fused sweep every process pool, auto's routed one included,
    is started before its lane's timed region and closed after it.  The
    tiny trace's plain runs evaluate one chunk per sweep, so no lane
    builds a pool there (the serial guard) and none is started: forked
    workers would only tax the parent's page writes.  Each tiny-trace
    lane's wall time is the median of ``ROUTING_TINY_REPEATS`` runs."""
    from repro.backends import new_backend

    shapes = (
        ("tiny trace", routing_tiny_trace(smoke=smoke), _tiny_trace, False,
         ROUTING_TINY_REPEATS),
        ("fused sweep", process_bench_members(smoke=smoke), _fused_sweep,
         True, 1),
    )
    max_ratio = ROUTING_AUTO_MAX_RATIO_SMOKE if smoke else ROUTING_AUTO_MAX_RATIO
    rows, checks = [], []
    for workload, members, run_shape, fans_out, repeats in shapes:
        _warm_rules(members)
        walls, reference = {}, None
        for spec in _host_lanes() + ["auto"]:
            bk = spec if spec == "auto" else new_backend(spec)
            pool = _sweep_pool(spec, bk, members) if fans_out else None
            gc.collect()  # no lane pays for an earlier lane's garbage
            try:
                if pool is not None:
                    pool.start()
                runs = [_timed(run_shape, members, bk) for _ in range(repeats)]
            finally:
                for owned in {bk, pool}:
                    if hasattr(owned, "close"):
                        owned.close()
            results = runs[0][0]
            walls[spec] = statistics.median(wall for _, wall in runs)
            if reference is None:
                reference = results
            rows.append(_row(workload, spec, walls[spec], results,
                             None if results is reference
                             else all(map(_same_bits, results, reference))))
        best = min((s for s in walls if s != "auto"), key=walls.get)
        ratio = walls["auto"] / walls[best]
        checks.append(_check(f"{workload}: auto / best fixed ({best})",
                             ratio, max_ratio, ratio <= max_ratio))

    return rows, checks


# --- scenarios: transform specs, a fused sweep, a watchdogged escalation -----
def scenario_workloads(smoke: bool) -> tuple:
    """The opened workload space converges, and an escalated run keeps
    honest provenance: a PAGANI-first stage history whose final result is
    never relabelled as converged native PAGANI."""
    from repro.api import integrate, integrate_sweep

    rows, checks = [], []
    specs = SCENARIO_TRANSFORMS[:1] if smoke else SCENARIO_TRANSFORMS
    for spec, f in zip(specs, _catalogue(specs)):
        res, wall = _timed(
            integrate, f, f.ndim, rel_tol=SCENARIOS_REL_TOL, backend="numpy"
        )
        rows.append(_row(spec, "numpy", wall, [res], None))
        # a spec-less integrand can be neither cached nor shipped
        checks.append(_check(f"{spec}: canonical spec", f.spec, "non-empty",
                             bool(f.spec)))

    pairs, wall = _timed(integrate_sweep, SCENARIO_SWEEP,
                         rel_tol=SCENARIOS_REL_TOL)
    rows.append(_row(SCENARIO_SWEEP, "numpy", wall, [r for _, r in pairs], None))

    esc = SCENARIO_ESCALATION
    (f,) = _catalogue([esc["spec"]])
    res, wall = _timed(integrate, f, f.ndim, rel_tol=esc["rel_tol"],
                       escalation=esc["escalation"])
    rows.append(_row(f"{esc['spec']} [{esc['escalation']}]", "numpy", wall,
                     [res], None))
    stages = res.escalation or []
    history = [s.method for s in stages]
    last_method = history[-1] if history else None
    last_status = stages[-1].status.value if stages else None
    checks += [
        _check("escalated", res.escalated, True, bool(res.escalated)),
        _check("escalation history", history, "starts with pagani",
               history[:1] == ["pagani"]),
        # the rung's own method: an escalated run is never relabelled
        _check("final method", res.method, last_method,
               res.method == last_method != "pagani"),
        _check("final status", res.status.value, last_status,
               res.status.value == last_status),
    ]
    return rows, checks


SCENARIOS = {
    "backends": scenario_backends,
    "batch": scenario_batch,
    "service": scenario_service,
    "process": scenario_process,
    "http": scenario_http,
    "routing": scenario_routing,
    "scenarios": scenario_workloads,
}


# --- one runner, one writer, one printer, one check --------------------------
def run(name: str, smoke: bool = False) -> dict:
    """Run one scenario; return its payload."""
    import platform

    rows, checks = SCENARIOS[name](smoke)
    return {
        "scenario": name,
        "mode": "smoke" if smoke else ("full" if full_mode() else "quick"),
        "generated_by": f"PYTHONPATH=src python benchmarks/harness.py {name}",
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count() or 1,
        },
        "rows": [{"scenario": name, **row} for row in rows],
        "checks": checks,
    }


def write(payload: dict, out_dir: Optional[Path] = None) -> Path:
    """Write ``BENCH_<scenario>.json`` into ``out_dir``; return the path."""
    out_dir = RESULTS_DIR if out_dir is None else Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{payload['scenario']}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def print_payload(payload: dict) -> None:
    body = [
        [
            r["workload"], r["lane"], f"{r['wall_s']:.3f}s", r["neval"],
            f"{r['s_per_meval']:.4f}", "yes" if r["converged"] else "DNF",
            {True: "yes", False: "NO", None: "-"}[r["agrees"]],
        ]
        for r in payload["rows"]
    ]
    print_table(
        f"{payload['scenario']} ({payload['mode']}, "
        f"{payload['host']['cpus']} cpus)",
        ["workload", "lane", "wall", "neval", "s/Meval", "converged", "agrees"],
        body,
    )
    for c in payload["checks"]:
        verdict = "ok" if c["ok"] else ("FAIL" if c["enforced"] else "not met")
        enforced = "" if c["enforced"] else " (not enforced)"
        value = f"{c['value']:.3g}" if isinstance(c["value"], float) else c["value"]
        print(f"check {c['name']}: {value} vs {c['bound']} -> {verdict}{enforced}")


def load(path: Path) -> dict:
    """Read a payload written by :func:`write`; exit 2 if unreadable."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read benchmark payload {path}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)


def _require_schema(payload) -> None:
    """Exit 2 on a payload that is not in the row/check schema."""
    if not (
        isinstance(payload, dict)
        and isinstance(payload.get("scenario"), str)
        and isinstance(payload.get("rows"), list)
        and isinstance(payload.get("checks"), list)
        and all(isinstance(r, dict) and set(ROW_FIELDS) <= set(r)
                for r in payload["rows"])
        and all(isinstance(c, dict) and set(CHECK_FIELDS) <= set(c)
                for c in payload["checks"])
    ):
        print("error: benchmark payload is not in the row/check schema",
              file=sys.stderr)
        raise SystemExit(2)


def _numpy_rate(payload: dict) -> Optional[float]:
    rates = [r["s_per_meval"] for r in payload["rows"] if r["lane"] == "numpy"]
    return statistics.median(rates) if rates else None


def problems(payload: dict, baseline: Optional[dict] = None) -> List[str]:
    """Every reason the payload fails its claims; [] when clean.

    Fatal: a non-converged row, a row that disagrees with its reference,
    an enforced check that is not ok and, on the backends scenario only,
    a numpy median s/Meval above RATE_TOLERANCE × the ``baseline``
    payload's (default: the committed ``BENCH_backends.json``).  Exits 2
    on a payload or baseline not in the schema.
    """
    _require_schema(payload)
    name = payload["scenario"]
    found = []
    for r in payload["rows"]:
        label = f"{name}/{r['workload']}/{r['lane']}"
        if not r["converged"]:
            found.append(f"{label}: did not converge (DNF)")
        if r["agrees"] is False:
            found.append(f"{label}: disagrees with the reference")
    for c in payload["checks"]:
        if c["enforced"] and not c["ok"]:
            found.append(
                f"{name} check {c['name']}: {c['value']} vs bound {c['bound']}"
            )
    if name == "backends":
        if baseline is None:
            baseline = load(RESULTS_DIR / "BENCH_backends.json")
        _require_schema(baseline)
        current, base = _numpy_rate(payload), _numpy_rate(baseline)
        if current is None:
            found.append("backends: no numpy rows to rate")
        elif base is not None and current > RATE_TOLERANCE * base:
            found.append(
                f"backends: numpy {current:.3f} s/Meval is "
                f"{current / base:.2f}x the committed {base:.3f} s/Meval "
                f"(> {RATE_TOLERANCE:g}x allowed)"
            )
    return found


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: run scenarios, write their payloads, exit 1 on any problem."""
    import argparse

    ap = argparse.ArgumentParser(
        description="Run benchmark scenarios, write BENCH_<scenario>.json "
        "for each and exit 1 if any row or check fails its claim."
    )
    ap.add_argument(
        "scenarios", nargs="+", metavar="SCENARIO",
        choices=[*SCENARIOS, "all"],
        help=f"one or more of {', '.join(SCENARIOS)}, or all",
    )
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized workloads")
    ap.add_argument("--out", type=Path, default=RESULTS_DIR,
                    help="output directory (default: benchmarks/results)")
    args = ap.parse_args(argv)

    names = list(SCENARIOS) if "all" in args.scenarios else list(
        dict.fromkeys(args.scenarios)
    )
    failed = False
    for name in names:
        payload = run(name, smoke=args.smoke)
        # checked before writing: the rate rule reads the committed baseline
        found = problems(payload)
        path = write(payload, args.out)
        print_payload(payload)
        print(f"wrote {path}")
        for problem in found:
            print(f"PROBLEM: {problem}")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
