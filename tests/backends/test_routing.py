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
from repro.backends import routing
from repro.backends.routing import (
    AUTO_SPEC,
    PROCESS_MIN_EVALS,
    BackendRouter,
    first_sweep_evals,
    is_auto,
    shared_router,
)
from repro.integrands.catalog import named_integrand

#: dimensions of perfbench's sweep_auto batch members
SWEEP_AUTO_NDIMS = [4, 5, 4, 4, 3, 3, 3, 3]


def router(**kw):
    """A fully injected router: no host probing."""
    kw.setdefault("process", True)
    kw.setdefault("process_width", 8)
    return BackendRouter(**kw)


# ---------------------------------------------------------------------------
# The threshold
# ---------------------------------------------------------------------------
def test_router_opens_no_file(monkeypatch):
    """An installed package routes like a repo checkout: no file read."""
    import builtins
    import io
    from pathlib import Path

    def no_file(*args, **kwargs):
        raise AssertionError(f"router opened {args[:1]}")

    for owner, name in ((builtins, "open"), (io, "open"), (Path, "open")):
        monkeypatch.setattr(owner, name, no_file)
    r = BackendRouter(process_width=2, process=True)
    assert r.decide(SWEEP_AUTO_NDIMS).backend == "process:2"
    assert r.decide([5]).backend == "numpy"


def test_first_sweep_evals_grows_with_dimension():
    evals = [first_sweep_evals(d) for d in (2, 3, 5, 8)]
    assert all(b > a for a, b in zip(evals, evals[1:]))
    assert evals[0] > 0


def test_is_auto():
    assert is_auto("auto") and is_auto(AUTO_SPEC)
    assert not is_auto("numpy") and not is_auto(None) and not is_auto(3)


@pytest.mark.parametrize(
    "evals, width, expected",
    [
        (PROCESS_MIN_EVALS - 1, 2, "numpy"),
        (PROCESS_MIN_EVALS, 2, "process:2"),
        (PROCESS_MIN_EVALS - 1, 8, "numpy"),
        (PROCESS_MIN_EVALS, 8, "process:8"),
    ],
)
def test_threshold_boundary(monkeypatch, evals, width, expected):
    monkeypatch.setattr(routing, "first_sweep_evals", lambda ndim: evals)
    decision = router(process_width=width).decide([3])
    assert decision.backend == expected
    assert decision.evals == evals
    assert not decision.forced


@pytest.mark.parametrize(
    "ndim, kw, expected",
    [
        # tiny sweep: stays on numpy
        (2, dict(), "numpy"),
        (3, dict(), "numpy"),
        # big sweep: a pool as wide as the host
        (8, dict(), "process:8"),
        (8, dict(process_width=4), "process:4"),
        # no usable pool (or width 1): the reference backend carries it
        (8, dict(process=False), "numpy"),
        (8, dict(process_width=1), "numpy"),
        # either side of the threshold
        (5, dict(), "numpy"),
        (7, dict(), "process:8"),
    ],
)
def test_decision_table(ndim, kw, expected):
    decision = router(**kw).decide([ndim])
    assert decision.backend == expected
    assert not decision.forced
    assert decision.evals == first_sweep_evals(ndim)


@pytest.mark.parametrize("ndims", [[3], [8], [8] * 4, SWEEP_AUTO_NDIMS])
def test_one_wide_host_never_routes_to_a_one_worker_pool(ndims):
    """A one-worker pool only adds dispatch to numpy's work."""
    r = router(process_width=1)
    assert r.decide(ndims).backend == "numpy"
    assert r.stats()["candidates"] == ["numpy"]


def test_sweep_auto_members_route_to_the_pool_on_two_cpus():
    """perfbench's sweep_auto batch: every call goes to process:2."""
    assert sum(map(first_sweep_evals, SWEEP_AUTO_NDIMS)) >= PROCESS_MIN_EVALS
    r = BackendRouter(process_width=2, process=True)
    assert r.decide(SWEEP_AUTO_NDIMS).backend == "process:2"


def test_override_short_circuits_scoring():
    decision = router().decide([8], override="threaded:2")
    assert decision.backend == "threaded:2"
    assert decision.forced
    assert decision.evals == 0
    # "auto" as an override means "no override": the policy runs.
    assert router().decide([8], override="auto").backend == "process:8"


def test_batch_is_routed_by_its_summed_work():
    r = router()
    # Each 3D member alone is too small for the pool...
    assert r.decide([3]).backend == "numpy"
    # ...but ten of them fused into one batch reach the threshold.
    assert r.decide([3] * 10).backend == "process:8"


def test_host_width_counts_only_usable_cpus(monkeypatch):
    """A process pinned to one CPU (taskset, a cpuset) sees width 1 and
    routes everything to numpy, whatever the host's CPU count."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    r = BackendRouter(process=True)
    assert r.process_width == 1
    assert r.decide([8]).backend == "numpy"


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
                r.decide([3])
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
        shared_router().decide(ndims).backend
        == BackendRouter().decide(ndims).backend
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
        # 6D reaches the routing threshold, so it runs on the process
        # pool where the host has one at least two wide (numpy
        # elsewhere); 3D always runs on numpy.
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
