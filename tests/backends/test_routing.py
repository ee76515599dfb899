"""Routing: decision table, determinism, and conformance.

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
    BackendRouter,
    first_sweep_evals,
    is_auto,
    shared_router,
)
from repro.integrands.catalog import named_integrand


def router(**kw):
    """A fully injected router: no host probing."""
    kw.setdefault("process", True)
    kw.setdefault("process_width", 8)
    return BackendRouter(**kw)


# ---------------------------------------------------------------------------
# Priors and the job score
# ---------------------------------------------------------------------------
# Predicted seconds on the default priors, pinned to the values measured
# while the priors were still read from the committed bench files.
def test_batch_routing_decision_pinned():
    """The members of perfbench's sweep_auto batch: routed to the pool."""
    r = BackendRouter(process_width=2, process=True)
    assert r.decide_batch([4, 5, 4, 4, 3, 3, 3, 3]).predicted_seconds == {
        "numpy": 0.08250702795397025, "process:2": 0.045586604127113975,
    }


def test_plain_routing_decision_pinned():
    r = BackendRouter(process_width=2, process=True)
    assert r.decide(5, context="plain").predicted_seconds == {
        "numpy": 0.024191490112109165, "process:2": 0.03612766007473944,
    }


def test_router_opens_no_file(monkeypatch):
    """An installed package has no benchmarks/ tree to read priors from."""
    import builtins
    import io
    from pathlib import Path

    def no_file(*args, **kwargs):
        raise AssertionError(f"router opened {args[:1]}")

    for owner, name in ((builtins, "open"), (io, "open"), (Path, "open")):
        monkeypatch.setattr(owner, name, no_file)
    r = BackendRouter(process_width=2, process=True)
    assert r.decide_batch([4, 5, 4, 4, 3, 3, 3, 3]).backend == "process:2"
    assert r.decide(5, context="plain").backend == "numpy"


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


def test_decide_batch_rejects_unknown_context():
    with pytest.raises(ValueError):
        router().decide_batch([3], context="cluster")


def test_host_router_candidates_are_numpy_and_the_process_pool():
    candidates = BackendRouter().stats()["candidates"]
    assert candidates[0] == "numpy"
    assert {c.partition(":")[0] for c in candidates} <= {"numpy", "process"}


def test_decisions_are_thread_safe():
    import threading

    r = router()
    errors = []

    def spin():
        try:
            for _ in range(200):
                r.decide(ndim=3)
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


def test_shared_router_is_singleton():
    assert shared_router() is shared_router()


def test_routing_does_not_depend_on_history():
    """A routed batch leaves the shared router deciding exactly as a
    fresh one: nothing timed at run time feeds back into routing.  The
    members are perfbench's sweep_auto batch."""
    specs = ["4D-f2", "5D-f4", "4D-f4", "4D-f5", "3D-f2", "3D-f6", "3D-f4", "3D-f5"]
    members = [named_integrand(s) for s in specs]
    ndims = [f.ndim for f in members]
    integrate_many(members, rel_tol=1e-3, backend="auto")
    assert (
        shared_router().decide_batch(ndims).backend
        == BackendRouter().decide_batch(ndims).backend
    )


# ---------------------------------------------------------------------------
# Service-level routing: resolved fingerprints, per-job overrides
# ---------------------------------------------------------------------------
def test_service_auto_resolves_backend_and_fingerprint():
    from repro.service import IntegrationService, JobSpec, job_fingerprint

    service = IntegrationService(backend="auto")
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

    # The fingerprint names the computation, neither "auto" nor the
    # backend the router picked.
    expected = job_fingerprint(
        integrand_id="3d-f4",
        ndim=3,
        bounds=np.array([(0.0, 1.0)] * 3),
        rel_tol=1e-3,
        abs_tol=1e-20,
        max_iterations=None,
        relerr_filtering=True,
    )
    assert handle.stats.fingerprint == expected


def test_service_auto_fingerprint_does_not_depend_on_history():
    """Other traffic through an auto service never changes how a job
    routes, so the same JobSpec keeps the same cache fingerprint."""
    from repro.service import IntegrationService, JobSpec

    service = IntegrationService(backend="auto")
    try:
        # 6D routes to the process pool in batch context on any host
        # with a usable pool, 3D to numpy.
        first = service.submit_spec(JobSpec("6D-f4", rel_tol=1e-2))
        first.wait()
        service.submit_spec(JobSpec("3D-f4", rel_tol=1e-3)).wait()
        again = service.submit_spec(JobSpec("6D-f4", rel_tol=1e-2))
        again.wait()
    finally:
        service.shutdown(wait=True)
    assert again.stats.fingerprint == first.stats.fingerprint
    assert again.stats.cache_hit


def test_service_per_job_override_beats_routing():
    from repro.service import IntegrationService, JobSpec

    service = IntegrationService(backend="auto")
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
