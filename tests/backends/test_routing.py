"""Adaptive routing: decision table, refinement, and conformance.

The router may only choose *where* bits are computed, never *which*
bits: every routed outcome must be bit-identical to naming the resolved
backend directly.  The decision tests inject availability so they run
the same everywhere (CI single-core included).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import integrate, integrate_many
from repro.backends.routing import (
    AUTO_SPEC,
    FALLBACK_BATCH_GAIN,
    FALLBACK_S_PER_MEVAL,
    BackendRouter,
    first_sweep_evals,
    is_auto,
    load_batch_gains,
    load_priors,
    shared_router,
)
from repro.integrands.catalog import named_integrand


def router(**kw):
    """A fully injected router: no host probing, deterministic priors."""
    kw.setdefault("priors", dict(FALLBACK_S_PER_MEVAL))
    kw.setdefault("batch_gains", dict(FALLBACK_BATCH_GAIN))
    kw.setdefault("process", True)
    kw.setdefault("process_width", 8)
    return BackendRouter(**kw)


# ---------------------------------------------------------------------------
# Priors and the job score
# ---------------------------------------------------------------------------
def test_load_priors_prefers_committed_bench_else_fallback(tmp_path):
    committed = load_priors()
    assert set(FALLBACK_S_PER_MEVAL) <= set(committed)
    assert all(v > 0 for v in committed.values())
    missing = load_priors(tmp_path / "nope.json")
    assert missing == FALLBACK_S_PER_MEVAL


def test_load_priors_skips_dnf_rows(tmp_path):
    import json

    payload = {"backends": {"numpy": [
        # a DNF row with a pathological rate must not poison the prior
        {"converged": False, "neval": 100, "wall_seconds": 50.0},
        {"converged": True, "neval": 2_000_000, "wall_seconds": 1.0},
    ]}}
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(payload))
    assert load_priors(path)["numpy"] == pytest.approx(0.5)


def test_first_sweep_evals_grows_with_dimension():
    evals = [first_sweep_evals(d) for d in (2, 3, 5, 8)]
    assert all(b > a for a, b in zip(evals, evals[1:]))
    assert evals[0] > 0


def test_is_auto():
    assert is_auto("auto") and is_auto(AUTO_SPEC)
    assert not is_auto("numpy") and not is_auto(None) and not is_auto(3)


# ---------------------------------------------------------------------------
# Decision table
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "ndim, kw, expected",
    [
        # tiny sweep: pool/device dispatch overhead dominates
        (2, dict(), "numpy"),
        (3, dict(), "numpy"),
        # huge sweep: ideal-speedup pool wins despite its overhead
        (8, dict(), "process:8"),
        (8, dict(process_width=4), "process:4"),
        # no usable pool (or width 1): the reference backend carries it
        (8, dict(process=False), "numpy"),
        (8, dict(process_width=1), "numpy"),
    ],
)
def test_decision_table(ndim, kw, expected):
    decision = router(**kw).decide(ndim=ndim)
    assert decision.backend == expected
    assert not decision.forced
    assert decision.evals == first_sweep_evals(ndim)
    assert decision.backend in decision.predicted_seconds


def test_override_short_circuits_scoring():
    decision = router().decide(ndim=8, override="threaded:2")
    assert decision.backend == "threaded:2"
    assert decision.forced
    assert decision.predicted_seconds == {}
    # "auto" as an override means "no override": the policy runs.
    assert router().decide(ndim=8, override="auto").backend == "process:8"


def test_decide_batch_prices_summed_work():
    r = router()
    # Each 3D member alone is too small for the pool...
    assert r.decide(ndim=3).backend == "numpy"
    # ...but forty of them fused into one batch saturate it.
    assert r.decide_batch([3] * 40).backend == "process:8"


def test_batch_context_prefers_process_grain_even_serially():
    """On a 1-wide host the process backend still wins *batch* traffic:
    no pool is built (serial guard), but its fused chunk grain beats
    numpy's reference decomposition — the measured BENCH_batch gain."""
    r = router(process_width=1)
    # Plain (solo-integrate) context: no pool, no grain edge -> numpy.
    assert r.decide(ndim=8, context="plain").backend == "numpy"
    # Batch context: the grain gain pays for itself on a big sweep...
    assert r.decide_batch([8]).backend == "process:1"
    # ...but not on a tiny one (dispatch overhead dominates).
    assert r.decide_batch([3]).backend == "numpy"


def test_load_batch_gains_committed_else_fallback(tmp_path):
    committed = load_batch_gains()
    assert committed["numpy"] == pytest.approx(1.0)
    assert committed["process"] > 1.0  # the grain gain is real
    assert load_batch_gains(tmp_path / "nope.json") == FALLBACK_BATCH_GAIN


def test_decide_batch_rejects_unknown_context():
    with pytest.raises(ValueError):
        router().decide_batch([3], context="cluster")


def test_observation_refines_decisions():
    r = router()
    assert r.decide(ndim=8).backend == "process:8"
    # Report the pool crawling (heavy oversubscription, say): the EWMA
    # belief update must flip the big-job decision back to numpy.
    for _ in range(20):
        r.observe("process:8", neval=1_000_000, seconds=10.0)
    assert r.decide(ndim=8).backend == "numpy"
    stats = r.stats()
    assert stats["observations"] == 20
    assert stats["observed_s_per_meval"]["process"] > 1.0
    assert stats["decisions"] == {"process": 1, "numpy": 1}


def test_bad_observations_are_ignored():
    r = router()
    r.observe("numpy", neval=0, seconds=1.0)
    r.observe("numpy", neval=100, seconds=0.0)
    assert r.stats()["observations"] == 0


def test_autotune_probes_real_pool_widths(monkeypatch):
    """With a usable multi-worker host the autotune probe times real
    pools and adopts the fastest width (one candidate here, so the
    outcome is deterministic)."""
    from repro.backends import routing as routing_mod
    from repro.backends.process import process_pool_available

    if not process_pool_available():
        pytest.skip("no process pool on this host")
    monkeypatch.setattr(routing_mod, "resolve_workers", lambda n=None: 2)
    r = router()
    assert r.autotune_width(probe_rel_tol=1e-2) == 2
    assert r.process_width == 2
    assert set(r.autotune_report) == {"2"}
    assert r.autotune_report["2"] > 0
    assert r.stats()["autotuned"] is True
    # probe timings are width-selection evidence only, never EWMA input
    assert r.stats()["observations"] == 0


def test_host_router_candidates_are_numpy_and_the_process_pool():
    candidates = BackendRouter().stats()["candidates"]
    assert candidates[0] == "numpy"
    assert {c.partition(":")[0] for c in candidates} <= {"numpy", "process"}


def test_autotune_without_pool_pins_width_one():
    r = router(process=False)
    assert r.autotune_width() == 1
    assert r.process_width == 1
    assert r.stats()["candidates"] == ["numpy"]
    assert r.stats()["autotuned"] is True


def test_decisions_are_thread_safe():
    import threading

    r = router()
    errors = []

    def spin():
        try:
            for _ in range(200):
                r.decide(ndim=3)
                r.observe("numpy", 1000, 1e-4)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=spin) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert r.stats()["decisions"]["numpy"] == 800


# ---------------------------------------------------------------------------
# Conformance: routing never changes the numbers
# ---------------------------------------------------------------------------
def test_routed_integrate_bit_identical_to_resolved_backend():
    f = named_integrand("3D-f4")
    ref = integrate(f, 3, rel_tol=1e-4)
    routed = integrate(f, 3, rel_tol=1e-4, backend="auto")
    assert routed.estimate == ref.estimate
    assert routed.errorest == ref.errorest
    assert routed.neval == ref.neval


def test_routed_integrate_many_bit_identical():
    members = [named_integrand("3D-f4"), named_integrand("3D-f3")]
    ref = integrate_many(members, rel_tol=1e-3)
    routed = integrate_many(members, rel_tol=1e-3, backend="auto")
    for a, b in zip(ref, routed):
        assert a.estimate == b.estimate
        assert a.errorest == b.errorest


def test_shared_router_is_singleton_and_learns():
    r = shared_router()
    assert r is shared_router()
    before = r.stats()["observations"]
    integrate(named_integrand("3D-f4"), 3, rel_tol=1e-3, backend="auto")
    assert r.stats()["observations"] == before + 1


# ---------------------------------------------------------------------------
# Service-level routing: resolved fingerprints, per-job overrides
# ---------------------------------------------------------------------------
def test_service_auto_resolves_backend_and_fingerprint():
    from repro.core.pagani import PaganiConfig
    from repro.service import IntegrationService, JobSpec, job_fingerprint

    service = IntegrationService(backend="auto", routing_autotune=False)
    try:
        assert service.stats()["backend"] == "auto"
        assert "routing" in service.stats()
        handle = service.submit_spec(JobSpec("3D-f4", rel_tol=1e-3))
        handle.wait()
        res = handle.result()
    finally:
        service.shutdown(wait=True)
    ref = integrate(named_integrand("3D-f4"), 3, rel_tol=1e-3)
    assert res.estimate == ref.estimate

    # The fingerprint names the *resolved* backend, never "auto": a
    # tiny 3D job routes to numpy on every host this test runs on.
    from repro.backends import get_backend

    bk = get_backend("numpy")
    expected = job_fingerprint(
        integrand_id="3d-f4",
        ndim=3,
        bounds=np.array([(0.0, 1.0)] * 3),
        rel_tol=1e-3,
        abs_tol=1e-20,
        backend="numpy",
        chunk_budget=PaganiConfig.resolve_chunk_budget(bk, None),
        max_iterations=None,
        relerr_filtering=True,
    )
    assert handle.stats.fingerprint == expected


def test_service_per_job_override_beats_routing():
    from repro.service import IntegrationService, JobSpec

    service = IntegrationService(backend="auto", routing_autotune=False)
    try:
        pinned = service.submit_spec(
            JobSpec("3D-f4", rel_tol=1e-3, backend="numpy")
        )
        routed = service.submit_spec(JobSpec("3D-f4", rel_tol=1e-3))
        pinned.wait()
        routed.wait()
        # Same resolved backend -> same fingerprint -> same bits.
        assert pinned.stats.fingerprint == routed.stats.fingerprint
        assert pinned.result().estimate == routed.result().estimate
    finally:
        service.shutdown(wait=True)


def test_jobspec_backend_field_round_trips_and_validates():
    from repro.errors import ConfigurationError
    from repro.service import JobSpec

    spec = JobSpec("3D-f4", backend="process:2")
    assert JobSpec.from_dict(spec.to_dict()).backend == "process:2"
    with pytest.raises(ConfigurationError):
        JobSpec("3D-f4", backend=123).validate()
