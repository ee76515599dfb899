#!/usr/bin/env python
"""Benchmark regression gate for CI.

Compares a fresh smoke run of the backend benchmark
(``python benchmarks/harness.py --smoke --out current.json``) against the
committed baseline ``benchmarks/results/BENCH_backends.json``.

The two payloads run *different workloads* (the committed baseline is
the quick-mode fig5/fig6 sweep; the smoke run is one CI-sized job), so
raw wall seconds are not comparable.  The gate therefore compares the
**normalised evaluation rate** — wall seconds per million integrand
evaluations — which is workload-size independent to first order, with a
deliberately generous tolerance (default 3x): shared CI runners jitter,
real pathologies (an accidentally quadratic hot path, a dropped
vectorisation) blow through 3x anyway.

Hard checks (always fatal, tolerance-independent):

* every smoke row converged — the smoke workload is chosen to converge,
  a DNF means the algorithm broke;
* every smoke row agrees with the numpy reference
  (``matches_numpy``) — a silent numerics change is worse than a slowdown.

When ``--current`` holds a ``pagani-http-bench`` payload (the HTTP
traffic-trace benchmark), the gate switches to that schema's hard
checks instead: every wave converged (DNF fatal), every replay is
bit-identical to cold ``integrate()`` (replay-mismatch fatal), and the
warm / restart-warm cache-hit-rate floors hold.  No baseline or rate
comparison applies — loopback wall clock is noise.

When ``--current`` holds a ``pagani-routing-bench`` payload (the
adaptive-routing benchmark), the hard checks are: every scenario run
converged, routed results agree with numpy, the ``auto`` policy stayed
within the payload's own ratio bound of the best fixed backend, and —
on hosts where the payload says the expectation is enforced — the shm
transport is at least as fast as per-chunk pickling.

When ``--current`` holds a ``pagani-scenarios-bench`` payload (the
workload-scenarios benchmark), the hard checks are correctness claims
only: every transform spec and sweep member converged, and the
escalation row kept honest provenance — a PAGANI-first stage history
whose final result is never relabelled as converged native PAGANI.

Exit codes: 0 OK, 1 regression/mismatch, 2 structural problem (missing
file, malformed payload).

Usage::

    python benchmarks/harness.py --smoke --out /tmp/current.json
    python tools/check_bench_regression.py --current /tmp/current.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "results" / "BENCH_backends.json"

#: per-million-eval wall seconds below this are treated as this value
#: when forming ratios, so timer noise on microscopic workloads cannot
#: fabricate a regression (or hide one behind a zero division).
RATE_FLOOR = 1e-6


def load(path: Path) -> dict:
    def structural(msg: str) -> SystemExit:
        print(msg, file=sys.stderr)
        return SystemExit(2)

    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise structural(f"error: cannot read {path}: {exc}")
    except ValueError as exc:
        raise structural(f"error: {path} is not valid JSON: {exc}")
    if data.get("suite") == "pagani-http-bench":
        # HTTP traffic-trace payload: waves instead of backend rows.
        if "waves" not in data or not isinstance(data["waves"], dict):
            raise structural(f"error: {path} has no 'waves' section")
        return data
    if data.get("suite") == "pagani-routing-bench":
        if "scenarios" not in data or not isinstance(data["scenarios"], dict):
            raise structural(f"error: {path} has no 'scenarios' section")
        return data
    if data.get("suite") == "pagani-scenarios-bench":
        for section, kind in (("transforms", list), ("sweep", dict),
                              ("escalation", dict)):
            if section not in data or not isinstance(data[section], kind):
                raise structural(
                    f"error: {path} has no '{section}' section")
        return data
    if "backends" not in data or not isinstance(data["backends"], dict):
        raise structural(f"error: {path} has no 'backends' section")
    return data


def check_http_bench(current: dict) -> list:
    """Hard checks for a ``pagani-http-bench`` payload (no baseline
    comparison — wall clock over a loopback socket is noise; the claims
    are correctness claims: every wave converged, every replay is
    bit-identical, and the hit-rate floors hold)."""
    failures = []
    waves = current["waves"]
    exp = current.get("expectation", {})
    for name, wave in waves.items():
        if not wave.get("all_converged", False):
            failures.append(f"http {name} wave: non-converged jobs (DNF)")
        if wave.get("replay_mismatches"):
            failures.append(
                f"http {name} wave: replays disagree with cold integrate() "
                f"({wave['replay_mismatches']})"
            )
    warm_floor = exp.get("min_warm_hit_rate", 0.5)
    if waves["warm"]["cache_hit_fraction"] < warm_floor:
        failures.append(
            f"http warm wave hit rate "
            f"{waves['warm']['cache_hit_fraction']:.2f} below {warm_floor}"
        )
    restart = waves.get("restart_warm")
    if restart is not None:
        restart_floor = exp.get("min_restart_hit_rate", 0.9)
        if restart["cache_hit_fraction"] < restart_floor:
            failures.append(
                f"http restart-warm hit rate "
                f"{restart['cache_hit_fraction']:.2f} below {restart_floor} "
                "— the durable store did not survive the restart"
            )
    print(f"{'wave':<14} {'hit rate':>9} {'fresh':>6}  bits")
    for name, wave in waves.items():
        bits = "MISMATCH" if wave.get("replay_mismatches") else "OK"
        print(f"{name:<14} {wave['cache_hit_fraction']:>8.0%} "
              f"{wave['fresh_runs']:>6}  {bits}")
    return failures


def check_routing_bench(current: dict) -> list:
    """Hard checks for a ``pagani-routing-bench`` payload.

    The payload carries its own expectation block (the smoke workload
    relaxes the auto ratio for runner timing noise), so the gate
    re-derives the failure list with the harness's own rules — one
    source of truth for what "routing regressed" means."""
    for extra in (REPO_ROOT / "benchmarks", REPO_ROOT / "src"):
        if str(extra) not in sys.path:
            sys.path.insert(0, str(extra))
    from harness import routing_bench_problems
    failures = list(routing_bench_problems(current))
    print(f"{'scenario':<13} {'auto':>9} {'best fixed':>18} {'ratio':>7}")
    for name, sc in current["scenarios"].items():
        best = sc["best_fixed"]
        print(
            f"{name:<13} {sc['auto']['wall_seconds']:>8.3f}s "
            f"{best:>10} {sc['fixed'][best]['wall_seconds']:>6.3f}s "
            f"{sc['auto_vs_best_ratio']:>6.2f}x"
        )
    ipc = current.get("ipc", {})
    if ipc.get("available"):
        enforced = current["expectation"]["ipc_enforced_on_this_host"]
        print(
            f"ipc shm {ipc['shm']['s_per_meval']:.4f} s/Meval vs pickle "
            f"{ipc['pickle']['s_per_meval']:.4f} s/Meval "
            f"({ipc['shm_speedup_vs_pickle']:.2f}x, "
            f"{'enforced' if enforced else 'not enforced on this host'})"
        )
    return failures


def check_scenarios_bench(current: dict) -> list:
    """Hard checks for a ``pagani-scenarios-bench`` payload.

    The workload-scenarios artifact makes correctness claims only — the
    transform specs and the fused sweep converge, and the escalation row
    keeps honest provenance (PAGANI-first stage history, the final
    result never relabelled as converged native PAGANI).  The failure
    list is re-derived with the harness's own rules — one source of
    truth for what "the workload space regressed" means."""
    for extra in (REPO_ROOT / "benchmarks", REPO_ROOT / "src"):
        if str(extra) not in sys.path:
            sys.path.insert(0, str(extra))
    from harness import scenarios_bench_problems
    failures = list(scenarios_bench_problems(current))
    print(f"{'kind':<11} {'spec':<46} status")
    for row in current["transforms"]:
        print(f"{'transform':<11} {row['spec']:<46} {row['status']}")
    for member in current["sweep"]["members"]:
        print(f"{'sweep':<11} {member['spec']:<46} {member['status']}")
    esc = current["escalation"]
    ladder = "->".join(s["method"] for s in esc["stages"])
    print(f"{'escalation':<11} {esc['spec'] + ' [' + ladder + ']':<46} "
          f"{esc['final_status']}")
    return failures


def rate_per_meval(row: dict) -> float:
    """Wall seconds per million evaluations for one benchmark row."""
    neval = max(1, int(row.get("neval", 0)))
    return max(RATE_FLOOR, float(row["wall_seconds"]) / neval * 1e6)


def backend_rate(rows: list) -> float:
    """Median per-Meval rate over a backend's rows (robust to one
    outlier workload)."""
    return statistics.median(rate_per_meval(r) for r in rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"committed baseline payload (default: {DEFAULT_BASELINE})",
    )
    ap.add_argument(
        "--current", type=Path, required=True,
        help="freshly generated payload to gate (harness --smoke output)",
    )
    ap.add_argument(
        "--tolerance", type=float, default=3.0,
        help="allowed current/baseline rate ratio (default 3.0 — "
        "generous on purpose; only pathologies should trip it)",
    )
    ap.add_argument(
        "--backends", default="numpy",
        help="comma-separated backends to gate (default: numpy — the "
        "deterministic reference; others are reported informationally)",
    )
    args = ap.parse_args(argv)

    current = load(args.current)
    if current.get("suite") == "pagani-routing-bench":
        failures = check_routing_bench(current)
        if failures:
            print("\nFAIL:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print("\nbenchmark gate OK")
        return 0
    if current.get("suite") == "pagani-scenarios-bench":
        failures = check_scenarios_bench(current)
        if failures:
            print("\nFAIL:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print("\nbenchmark gate OK")
        return 0
    if current.get("suite") == "pagani-http-bench":
        failures = check_http_bench(current)
        if failures:
            print("\nFAIL:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print("\nbenchmark gate OK")
        return 0

    baseline = load(args.baseline)
    gated = [b.strip() for b in args.backends.split(",") if b.strip()]

    failures = []

    # --- hard checks on the fresh run -----------------------------------
    for spec, rows in current["backends"].items():
        for row in rows:
            label = f"{spec}/{row.get('integrand')}@d{row.get('digits')}"
            if not row.get("converged", False):
                failures.append(f"{label}: smoke workload did not converge")
            if not row.get("matches_numpy", False):
                failures.append(f"{label}: disagrees with the numpy reference")

    # --- rate comparison -------------------------------------------------
    print(f"{'backend':<12} {'baseline':>12} {'current':>12} {'ratio':>7}  gate")
    for spec in sorted(current["backends"]):
        cur_rows = current["backends"][spec]
        base_rows = baseline["backends"].get(spec)
        if not cur_rows:
            continue
        if not base_rows:
            print(f"{spec:<12} {'-':>12} {backend_rate(cur_rows):>10.3f}"
                  f"{'':>2} {'-':>7}  no baseline (skipped)")
            continue
        base_rate = backend_rate(base_rows)
        cur_rate = backend_rate(cur_rows)
        ratio = cur_rate / base_rate
        is_gated = spec in gated
        verdict = "OK"
        if ratio > args.tolerance and is_gated:
            verdict = "REGRESSION"
            failures.append(
                f"{spec}: {cur_rate:.3f} s/Meval vs baseline "
                f"{base_rate:.3f} s/Meval ({ratio:.2f}x > "
                f"{args.tolerance:.1f}x allowed)"
            )
        elif ratio > args.tolerance:
            verdict = "slow (not gated)"
        print(f"{spec:<12} {base_rate:>10.3f}s {cur_rate:>10.3f}s "
              f"{ratio:>6.2f}x  {verdict}")

    if not any(spec in current["backends"] for spec in gated):
        failures.append(
            f"none of the gated backends {gated} appear in the current run"
        )

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nbenchmark gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
