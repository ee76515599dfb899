"""Process-backend specifics beyond the shared conformance battery.

The generic suite in ``test_backends.py`` already holds ``process`` /
``process:2`` to the bit-identity contract on closure integrands (which
exercise the serial in-process fallback).  This module exercises what is
unique to the process backend: the *remote* chunk path (picklable chunk
specs evaluated in worker processes), worker failure semantics, pool
lifecycle, and the graceful fallback for unshippable integrands.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.api import integrate, integrate_many
from repro.backends import (
    BackendUnavailableError,
    ProcessNumpyBackend,
    WorkerCrashError,
    get_backend,
)
from repro.batch import BatchMemberError
from repro.core.pagani import PaganiConfig, PaganiIntegrator
from repro.cubature.evaluation import evaluate_regions, shippable_integrand
from repro.cubature.rules import get_rule
from repro.integrands.catalog import named_integrand


def _process_backend(workers: int = 2) -> ProcessNumpyBackend:
    try:
        bk = ProcessNumpyBackend(num_workers=workers)
    except BackendUnavailableError as exc:  # pragma: no cover - sandbox
        pytest.skip(f"process backend unavailable: {exc}")
    return bk


# ---------------------------------------------------------------------------
# Shippability
# ---------------------------------------------------------------------------
def test_named_integrands_ship_by_spec():
    f = named_integrand("5D-f4")
    kind, value = shippable_integrand(f)
    assert (kind, value) == ("spec", "5d-f4")


def test_module_level_callables_ship_by_pickle():
    kind, _ = shippable_integrand(_sum_integrand)
    assert kind == "pickle"


def test_closures_are_not_shippable():
    coeff = np.arange(3.0)
    assert shippable_integrand(lambda x: x @ coeff) is None


# ---------------------------------------------------------------------------
# Remote-path bit-identity
# ---------------------------------------------------------------------------
def test_remote_chunks_bit_identical_to_numpy(rng):
    """Chunks computed in worker processes stitch to the exact numpy bits."""
    f = named_integrand("3D-f4")
    ndim = f.ndim
    rule = get_rule(ndim)
    m = 64
    centers = rng.random((m, ndim)) * 0.8 + 0.1
    halfw = np.full((m, ndim), 0.05)
    budget = rule.npoints * ndim * 4 * 8  # force ~16 chunks
    ref = evaluate_regions(
        rule, centers, halfw, f, error_model="cascade", chunk_budget=budget
    )
    bk = _process_backend(2)
    try:
        got, tasks = evaluate_regions(
            rule, centers, halfw, f, error_model="cascade",
            chunk_budget=budget, backend=bk, defer=True,
        )
        assert sum(t.remote_spec is not None for t in tasks) == len(tasks)
        bk.run_chunks(tasks)
    finally:
        bk.close()
    np.testing.assert_array_equal(got.estimate, ref.estimate)
    np.testing.assert_array_equal(got.error, ref.error)
    np.testing.assert_array_equal(got.split_axis, ref.split_axis)


def test_end_to_end_integrate_bit_identical_via_remote_path():
    """Force many shipped chunks per sweep and compare full runs."""
    f = named_integrand("3D-f4")
    results = {}
    for spec in ("numpy", "process:2"):
        cfg = PaganiConfig(
            rel_tol=1e-4, max_iterations=12, backend=spec,
            chunk_budget=200_000,  # same (small) decomposition for both
        )
        results[spec] = PaganiIntegrator(cfg).integrate(f, f.ndim)
    ref, got = results["numpy"], results["process:2"]
    assert got.estimate == ref.estimate
    assert got.errorest == ref.errorest
    assert got.iterations == ref.iterations
    get_backend("process:2").close()


def test_fine_grain_remote_run_matches_default_numpy_run():
    """Many small shipped chunks (chunk_budget=40_000) against the numpy
    reference at its default grain: the same bits and the same work."""
    f = named_integrand("3D-f4")  # ships by spec: the remote path runs
    bk = _process_backend(2)
    try:
        cfg = PaganiConfig(rel_tol=1e-4, backend=bk, chunk_budget=40_000)
        got = PaganiIntegrator(cfg).integrate(f, 3)
    finally:
        bk.close()
    ref = integrate(f, 3, rel_tol=1e-4)
    assert got.estimate == ref.estimate
    assert got.errorest == ref.errorest
    assert got.neval == ref.neval


def test_unshippable_integrand_falls_back_and_matches(gaussian3):
    """A closure integrand cannot ship; results must still match numpy."""
    ref = integrate(gaussian3, 3, rel_tol=1e-4)
    got = integrate(gaussian3, 3, rel_tol=1e-4, backend="process:2")
    assert got.estimate == ref.estimate
    assert got.errorest == ref.errorest


def test_pickled_user_callable_runs_remote_bit_identical():
    """A module-level user callable ships as pickled bytes (no catalogue
    spec); the workers' results stitch to the numpy bits."""
    assert shippable_integrand(_peak_integrand)[0] == "pickle"
    results = {}
    for spec in ("numpy", "process:2"):
        cfg = PaganiConfig(
            rel_tol=1e-5, max_iterations=8, backend=spec,
            chunk_budget=40_000,
        )
        results[spec] = PaganiIntegrator(cfg).integrate(_peak_integrand, 3)
    get_backend("process:2").close()
    ref, got = results["numpy"], results["process:2"]
    assert got.estimate == ref.estimate
    assert got.errorest == ref.errorest
    assert got.neval == ref.neval


def test_chunk_payload_is_its_slices_plus_a_reference():
    """What crosses to a worker is the chunk's own center/halfwidth
    slices and a small integrand reference, and what comes back is the
    three per-region vectors: no rule tensors, no whole-sweep arrays."""
    import pickle

    bk = _process_backend(2)
    try:
        tasks = _deferred_tasks(bk, named_integrand("3D-f4"))
        for task in tasks:
            spec = task.remote_spec
            assert set(spec) == {
                "integrand", "ndim", "error_model", "centers", "halfwidths",
            }
            assert spec["integrand"] == ("spec", "3d-f4")
            arrays = spec["centers"].nbytes + spec["halfwidths"].nbytes
            assert len(pickle.dumps(spec)) < arrays + 1024
        import repro.backends.process as proc

        out = proc._eval_chunk_in_worker(tasks[0].remote_spec)
        mc = len(tasks[0].remote_spec["centers"])
        assert sum(a.nbytes for a in out) == 3 * mc * 8
    finally:
        bk.close()


def test_worker_scratch_reuse_keeps_the_bits(monkeypatch):
    """A worker runs every chunk on one module-level scratch.  Two chunks
    of different sizes and dimensions in a row give the bits of
    ``compute_chunk`` on a fresh scratch."""
    import repro.backends.process as proc
    from repro.cubature.evaluation import compute_chunk
    from repro.cubature.rules import RULE_CACHE

    monkeypatch.setattr(proc, "_worker_scratch", None)
    bk = get_backend("numpy")
    rng = np.random.default_rng(7)
    seen = []
    for spec, mc in (("5D-f5", 300), ("3D-f4", 41), ("5D-f5", 7)):
        f = named_integrand(spec)
        h = rng.uniform(0.01, 0.1, size=(mc, f.ndim))
        c = rng.uniform(h, 1.0 - h)
        got = proc._eval_chunk_in_worker(
            {
                "integrand": ("spec", f.spec),
                "ndim": f.ndim,
                "error_model": "cascade",
                "centers": c,
                "halfwidths": h,
            }
        )
        got = [a.copy() for a in got]  # views into the worker's scratch
        seen.append(proc._worker_scratch)
        dr = RULE_CACHE.device_rule(get_rule(f.ndim), bk)
        want = compute_chunk(bk, dr, f, c, h, "cascade")
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    assert seen[0] is not None
    assert all(s is seen[0] for s in seen)


# ---------------------------------------------------------------------------
# Failure semantics
# ---------------------------------------------------------------------------
def _sum_integrand(x):
    return np.sum(x, axis=1)


def _peak_integrand(x):
    return np.exp(-10.0 * np.sum((x - 0.5) ** 2, axis=1))


def _slow_first_chunk_integrand(x):
    # only the first chunk of the staggered sweep reaches below x0 = 0.2
    if x[:, 0].min() < 0.2:
        time.sleep(0.3)
    return np.exp(-np.sum(x, axis=1))


def _raising_integrand(x):
    raise ValueError("integrand exploded in a worker")


def _crashing_integrand(x):
    os._exit(13)  # kill the worker process outright, no exception


_raising_integrand.ndim = 3
_crashing_integrand.ndim = 3


def _deferred_tasks(bk, integrand):
    """Small multi-chunk sweep on ``bk`` with every chunk shipped."""
    rule = get_rule(3)
    m = 16
    centers = np.full((m, 3), 0.5)
    halfw = np.full((m, 3), 0.1)
    budget = rule.npoints * 3 * 4  # 4 regions per chunk -> 4 chunks
    _, tasks = evaluate_regions(
        rule, centers, halfw, integrand, chunk_budget=budget,
        backend=bk, defer=True,
    )
    assert len(tasks) == 4
    assert all(t.remote_spec is not None for t in tasks)
    return tasks


def test_out_of_order_completion_stitches_each_chunk_in_place():
    """The first chunk's worker finishes last; every chunk's results
    still land in its own regions, bit-identical to numpy."""
    rule = get_rule(3)
    m = 16
    centers = np.full((m, 3), 0.5)
    centers[:, 0] = np.linspace(0.1, 0.9, m)  # 4 regions per chunk
    halfw = np.full((m, 3), 0.05)
    budget = rule.npoints * 3 * 4
    ref = evaluate_regions(
        rule, centers, halfw, _slow_first_chunk_integrand,
        chunk_budget=budget,
    )
    bk = _process_backend(2)
    try:
        got, tasks = evaluate_regions(
            rule, centers, halfw, _slow_first_chunk_integrand,
            chunk_budget=budget, backend=bk, defer=True,
        )
        assert len(tasks) == 4
        assert all(t.remote_spec is not None for t in tasks)
        bk.run_chunks(tasks)
    finally:
        bk.close()
    np.testing.assert_array_equal(got.estimate, ref.estimate)
    np.testing.assert_array_equal(got.error, ref.error)
    np.testing.assert_array_equal(got.split_axis, ref.split_axis)


def test_worker_exception_propagates_like_serial():
    bk = _process_backend(2)
    try:
        with pytest.raises(ValueError, match="exploded in a worker"):
            bk.run_chunks(_deferred_tasks(bk, _raising_integrand))
    finally:
        bk.close()


def test_worker_crash_isolated_and_pool_recovers():
    """A dying worker surfaces WorkerCrashError and does not poison the
    backend: the next submission rebuilds the pool and succeeds."""
    bk = _process_backend(2)
    try:
        with pytest.raises(WorkerCrashError):
            bk.run_chunks(_deferred_tasks(bk, _crashing_integrand))
        assert bk._pool is None  # broken pool was discarded
        f = named_integrand("3D-f4")
        ref = integrate(f, 3, rel_tol=1e-3)
        got = integrate(f, 3, rel_tol=1e-3, backend=bk)
        assert got.estimate == ref.estimate
    finally:
        bk.close()


def test_batch_isolates_failing_member_on_process_backend():
    """One raising member is abandoned; the healthy members complete."""
    bk = _process_backend(2)
    try:
        members = [named_integrand("3D-f4"), _raising_integrand,
                   named_integrand("3D-f3")]
        results = integrate_many(
            members, ndim=3, rel_tol=1e-3, backend=bk,
            on_member_error="skip",
        )
    finally:
        bk.close()
    assert results[1] is None
    assert results[0] is not None and results[0].converged
    assert results[2] is not None and results[2].converged


def test_batch_raise_mode_chains_worker_exception():
    bk = _process_backend(2)
    try:
        with pytest.raises(BatchMemberError) as err:
            integrate_many(
                [named_integrand("3D-f4"), _raising_integrand], ndim=3,
                rel_tol=1e-3, backend=bk,
            )
        assert isinstance(err.value.__cause__, ValueError)
    finally:
        bk.close()


# ---------------------------------------------------------------------------
# Pool lifecycle
# ---------------------------------------------------------------------------
def test_close_is_idempotent_and_pool_rebuilds():
    bk = _process_backend(2)
    f = named_integrand("3D-f4")
    r1 = integrate(f, 3, rel_tol=1e-3, backend=bk)
    bk.close()
    bk.close()  # idempotent
    assert bk._pool is None
    r2 = integrate(f, 3, rel_tol=1e-3, backend=bk)  # lazily rebuilt
    assert r2.estimate == r1.estimate
    bk.close()


def test_started_pool_runs_clean_in_a_fresh_interpreter():
    """start(), a fused integrate_many on ``process:2`` and close() in a
    fresh interpreter, where no pool or helper process is up yet: the
    run exits 0 and writes nothing to stderr (no worker tracebacks, no
    leak warnings at shutdown)."""
    import subprocess
    import sys
    from pathlib import Path

    _process_backend(2).close()
    script = (
        "from repro.api import integrate_many\n"
        "from repro.backends import ProcessNumpyBackend\n"
        "from repro.integrands.catalog import named_integrand\n"
        "bk = ProcessNumpyBackend(num_workers=2)\n"
        "bk.start()\n"
        "integrate_many([named_integrand('3D-f4')] * 2, rel_tol=1e-4,"
        " backend=bk)\n"
        "bk.close()\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_start_builds_the_pool_the_sweeps_then_use():
    """start() builds the pool up front; a second start() and the
    following integrations reuse it instead of building another.  At
    width 1 there is nothing to start."""
    bk = _process_backend(2)
    try:
        bk.start()
        pool = bk._pool
        assert pool is not None
        assert 0 < len(pool._processes) <= bk.num_workers
        bk.start()
        assert bk._pool is pool
        integrate(named_integrand("3D-f4"), 3, rel_tol=1e-3, backend=bk)
        assert bk._pool is pool
    finally:
        bk.close()
    solo = _process_backend(1)
    solo.start()
    assert solo._pool is None


def test_constructor_takes_only_the_pool_width():
    """The pool width is the backend's one knob: there is a single
    transport, so no transport argument is accepted."""
    import inspect

    params = inspect.signature(ProcessNumpyBackend.__init__).parameters
    assert list(params) == ["self", "num_workers"]
    assert repr(_process_backend(3)) == "<ProcessNumpyBackend workers=3>"


def test_width_one_pool_runs_serially():
    bk = _process_backend(1)
    try:
        tasks = _deferred_tasks(bk, named_integrand("3D-f4"))
        bk.run_chunks(tasks)
        assert bk._pool is None  # never built a pool
    finally:
        bk.close()


# ---------------------------------------------------------------------------
# Availability probe: real primitive, cached verdict, surfaced reason
# ---------------------------------------------------------------------------
def test_pool_probe_caches_verdict_and_surfaces_reason(monkeypatch):
    import multiprocessing

    import repro.backends.process as proc

    class _NoSemContext:
        def Lock(self):
            raise OSError("Function not implemented (sandbox says no)")

    monkeypatch.setattr(proc, "_POOL_PROBE", None)
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda *a, **kw: _NoSemContext()
    )
    try:
        assert proc.process_pool_available() is False
        with pytest.raises(BackendUnavailableError) as excinfo:
            ProcessNumpyBackend(num_workers=2)
        # The real failure reason reaches the caller, not a generic shrug.
        assert "OSError" in str(excinfo.value)
        assert "sandbox says no" in str(excinfo.value)
        # Verdict is cached: a second call must not re-probe.
        monkeypatch.setattr(
            multiprocessing, "get_context",
            lambda *a, **kw: (_ for _ in ()).throw(AssertionError("re-probed")),
        )
        assert proc.process_pool_available() is False
    finally:
        proc._POOL_PROBE = None  # let later tests re-probe the real host


def test_pool_probe_positive_on_this_host():
    import repro.backends.process as proc

    proc._POOL_PROBE = None
    try:
        assert proc.process_pool_available() in (True, False)
        cached = proc._POOL_PROBE
        assert cached is not None
        assert proc.process_pool_available() == cached[0]
    finally:
        proc._POOL_PROBE = None


# ---------------------------------------------------------------------------
# Worker-side internals, exercised in-process.  The functions pool
# workers run are plain module functions; calling them here pins the
# remote half of the bit-identity argument deterministically, without a
# pool (and its scheduling noise) in the loop.
# ---------------------------------------------------------------------------
def test_worker_chunk_paths_match_direct_compute(rng):
    import repro.backends.process as proc
    from repro.cubature.evaluation import compute_chunk
    from repro.cubature.rules import RULE_CACHE

    mc, ndim = 6, 3
    centers = rng.random((mc, ndim)) * 0.5 + 0.25
    halfw = np.full((mc, ndim), 0.05)
    f = named_integrand("3D-f4")
    bk = proc._worker_backend()
    assert bk is proc._worker_backend()  # built once per process
    dr = RULE_CACHE.device_rule(get_rule(ndim), bk)
    ref = compute_chunk(bk, dr, f, centers, halfw, "two_rule")

    # The whole chunk spec crosses as one pickled payload.
    got = proc._eval_chunk_in_worker({
        "integrand": ("spec", "3d-f4"), "ndim": ndim,
        "error_model": "two_rule", "centers": centers, "halfwidths": halfw,
    })
    for a, b in zip(got, ref):
        np.testing.assert_array_equal(a, b)


def test_worker_integrand_refs_content_addressed(monkeypatch):
    import hashlib
    import pickle

    import repro.backends.process as proc

    blob = pickle.dumps(_sum_integrand)

    monkeypatch.setattr(proc, "_worker_integrands", {})
    by_spec = proc._resolve_worker_integrand(("spec", "3d-f4"))
    assert by_spec is proc._resolve_worker_integrand(("spec", "3d-f4"))

    by_pickle = proc._resolve_worker_integrand(("pickle", blob))
    assert by_pickle(np.ones((2, 3))).tolist() == [3.0, 3.0]

    # Equal bytes from a fresh pickling hit the same digest-keyed entry:
    # the callable is unpickled once per worker, not once per chunk.
    again = pickle.dumps(_sum_integrand)
    assert proc._resolve_worker_integrand(("pickle", again)) is by_pickle
    assert set(proc._worker_integrands) == {
        ("spec", "3d-f4"), ("pickle", hashlib.sha256(blob).digest()),
    }


def test_submit_race_with_closed_pool_surfaces_crash_error():
    """close() racing a submission must not hang or corrupt the backend:
    the dead pool is discarded and WorkerCrashError surfaces."""
    bk = _process_backend(2)
    try:
        tasks = _deferred_tasks(bk, named_integrand("3D-f4"))
        bk._ensure_pool().shutdown(wait=True)  # pool dies under run_chunks
        with pytest.raises(WorkerCrashError, match="unusable"):
            bk.run_chunks(tasks)
        assert bk._pool is None
    finally:
        bk.close()


def test_parallel_path_overlaps_unshippable_chunks():
    """Local (unshippable) chunks run in the parent while shipped chunks
    are in flight — and a failing local chunk propagates like a serial
    thunk."""
    bk = _process_backend(2)
    f = named_integrand("3D-f4")
    ran = []

    class _LocalTask:
        remote_spec = None

        def __call__(self):
            ran.append(True)

    class _FailingTask:
        remote_spec = None

        def __call__(self):
            raise ValueError("local chunk exploded")

    try:
        bk.run_chunks(list(_deferred_tasks(bk, f)) + [_LocalTask()])
        assert ran == [True]
        with pytest.raises(ValueError, match="local chunk exploded"):
            bk.run_chunks(list(_deferred_tasks(bk, f)) + [_FailingTask()])
    finally:
        bk.close()
