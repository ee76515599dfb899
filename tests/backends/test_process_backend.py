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


def test_unshippable_integrand_falls_back_and_matches(gaussian3):
    """A closure integrand cannot ship; results must still match numpy."""
    ref = integrate(gaussian3, 3, rel_tol=1e-4)
    got = integrate(gaussian3, 3, rel_tol=1e-4, backend="process:2")
    assert got.estimate == ref.estimate
    assert got.errorest == ref.errorest


# ---------------------------------------------------------------------------
# Failure semantics
# ---------------------------------------------------------------------------
def _sum_integrand(x):
    return np.sum(x, axis=1)


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


def test_started_pool_shares_the_parent_resource_tracker():
    """start() forks the workers before any shared-memory segment
    exists; they must still share the parent's resource tracker, or each
    starts its own on first attach and unlinks the parent's arenas as
    "leaked" when it exits.  Run in a fresh interpreter, where no
    tracker is up yet."""
    import subprocess
    import sys
    from pathlib import Path

    from repro.backends.process import shared_memory_available

    _process_backend(2).close()
    if not shared_memory_available():  # pragma: no cover - sandbox
        pytest.skip("no shared memory on this host")
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
    assert "leaked" not in proc.stderr, proc.stderr


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


def test_rejects_unknown_ipc_transport():
    from repro.backends.process import process_pool_available

    if not process_pool_available():
        pytest.skip("no process pool on this host")
    with pytest.raises(ValueError):
        ProcessNumpyBackend(num_workers=2, ipc="carrier-pigeon")


# ---------------------------------------------------------------------------
# Shared-memory IPC: bit-identity vs the pickle transport and numpy
# ---------------------------------------------------------------------------
def test_shm_and_pickle_transports_bit_identical():
    from repro.backends.process import shared_memory_available

    if not shared_memory_available():
        pytest.skip("no shared memory on this host")
    f = named_integrand("3D-f4")  # ships by spec: the remote path runs
    results = {}
    for ipc in ("shm", "pickle"):
        bk = _process_backend(2)
        bk.ipc = ipc
        try:
            cfg = PaganiConfig(rel_tol=1e-4, backend=bk, chunk_budget=40_000)
            results[ipc] = PaganiIntegrator(cfg).integrate(f, 3)
        finally:
            bk.close()
    ref = integrate(f, 3, rel_tol=1e-4)
    for ipc, res in results.items():
        assert res.estimate == ref.estimate, ipc
        assert res.errorest == ref.errorest, ipc
        assert res.neval == ref.neval, ipc


def test_shm_probe_failure_degrades_transport_to_pickle(monkeypatch):
    """A host that cannot create segments reports shm unavailable and
    the backend silently degrades to the pickle transport."""
    import multiprocessing.shared_memory as sm

    import repro.backends.process as proc

    def _no_shm(*args, **kwargs):
        raise OSError("no /dev/shm on this host")

    monkeypatch.setattr(proc, "_SHM_PROBE", None)
    monkeypatch.setattr(sm, "SharedMemory", _no_shm)
    assert proc.shared_memory_available() is False
    bk = _process_backend(2)
    try:
        assert bk.ipc == "shm"
        assert bk.effective_ipc == "pickle"
    finally:
        bk.close()


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

    # Pickle transport: the whole chunk spec crosses as one payload.
    got = proc._eval_chunk_in_worker({
        "integrand": ("spec", "3d-f4"), "ndim": ndim,
        "error_model": "two_rule", "centers": centers, "halfwidths": halfw,
    })
    for a, b in zip(got, ref):
        np.testing.assert_array_equal(a, b)

    # Shm transport: inputs read from the input arena, results written
    # into the output arena slot — and they must be the same bits.
    in_arena, out_arena = proc._ShmArena(), proc._ShmArena()
    count = mc * ndim
    in_arena.ensure(2 * count * 8)
    out_arena.ensure(mc * 24)
    in_name, out_name = in_arena.name, out_arena.name
    try:
        np.frombuffer(
            in_arena.shm.buf, np.float64, count, 0
        ).reshape(mc, ndim)[:] = centers
        np.frombuffer(
            in_arena.shm.buf, np.float64, count, count * 8
        ).reshape(mc, ndim)[:] = halfw
        proc._eval_chunk_shm(
            (in_name, out_name, 0, 0, mc, ndim, "two_rule",
             ("spec", "3d-f4"))
        )
        est = np.frombuffer(out_arena.shm.buf, np.float64, mc, 0).copy()
        err = np.frombuffer(
            out_arena.shm.buf, np.float64, mc, mc * 8
        ).copy()
        axis = np.frombuffer(
            out_arena.shm.buf, np.int64, mc, mc * 16
        ).copy()
        np.testing.assert_array_equal(est, ref[0])
        np.testing.assert_array_equal(err, ref[1])
        np.testing.assert_array_equal(axis, ref[2])
    finally:
        for name in (in_name, out_name):
            seg = proc._worker_segments.pop(name, None)
            if seg is not None:
                try:
                    seg.close()
                except BufferError:
                    pass
        in_arena.release()
        out_arena.release()


def test_worker_integrand_refs_content_addressed(monkeypatch):
    import hashlib
    import pickle
    from multiprocessing import shared_memory

    import repro.backends.process as proc

    blob = pickle.dumps(_sum_integrand)
    digest = hashlib.sha256(blob).hexdigest()

    monkeypatch.setattr(proc, "_worker_integrands", {})
    by_spec = proc._resolve_worker_integrand(("spec", "3d-f4"))
    assert by_spec is proc._resolve_worker_integrand(("spec", "3d-f4"))

    by_pickle = proc._resolve_worker_integrand(("pickle", blob))
    assert by_pickle(np.ones((2, 3))).tolist() == [3.0, 3.0]

    # A shm ref whose digest already arrived inline is served from the
    # cache: no attach happens (the segment name is deliberately bogus).
    same = proc._resolve_worker_integrand(
        ("shm", ("no-such-segment", len(blob), digest))
    )
    assert same is by_pickle

    # A cold worker attaches the segment and unpickles from it.
    seg = shared_memory.SharedMemory(create=True, size=max(1, len(blob)))
    seg.buf[: len(blob)] = blob
    try:
        monkeypatch.setattr(proc, "_worker_integrands", {})
        fresh = proc._resolve_worker_integrand(
            ("shm", (seg.name, len(blob), digest))
        )
        assert fresh(np.ones((2, 3))).tolist() == [3.0, 3.0]
    finally:
        attached = proc._worker_segments.pop(seg.name, None)
        if attached is not None:
            try:
                attached.close()
            except BufferError:
                pass
        proc._release_shm(seg)


def test_worker_segment_cache_evicts_at_cap(monkeypatch):
    from collections import OrderedDict
    from multiprocessing import shared_memory

    import repro.backends.process as proc

    monkeypatch.setattr(proc, "_worker_segments", OrderedDict())
    monkeypatch.setattr(proc, "_WORKER_SEGMENT_CAP", 2)
    segs = [shared_memory.SharedMemory(create=True, size=64)
            for _ in range(3)]
    try:
        proc._worker_attach_shm(segs[0].name)
        proc._worker_attach_shm(segs[1].name)
        proc._worker_attach_shm(segs[0].name)  # refresh -> LRU is segs[1]
        proc._worker_attach_shm(segs[2].name)  # evicts segs[1]'s mapping
        assert set(proc._worker_segments) == {segs[0].name, segs[2].name}
    finally:
        for seg in list(proc._worker_segments.values()):
            try:
                seg.close()
            except BufferError:
                pass
        proc._worker_segments.clear()
        for seg in segs:
            proc._release_shm(seg)


def test_parent_integrand_blocks_are_lru_capped(monkeypatch):
    import repro.backends.process as proc

    monkeypatch.setattr(proc, "_INTEGRAND_SHM_CAP", 1)
    bk = _process_backend(2)
    try:
        # spec refs pass through untouched — nothing to stage
        assert bk._ship_integrand(("spec", "3d-f4")) == ("spec", "3d-f4")
        ref_a = bk._ship_integrand(("pickle", b"a" * 16))
        ref_b = bk._ship_integrand(("pickle", b"b" * 16))  # evicts a's block
        assert ref_a[0] == ref_b[0] == "shm"
        assert len(bk._integrand_shms) == 1
        # the surviving blob dedupes onto its existing segment
        assert bk._ship_integrand(("pickle", b"b" * 16)) == ref_b
    finally:
        bk.close()
    assert not bk._integrand_shms


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


def test_shm_arena_reuse_and_clean_close():
    from repro.backends.process import shared_memory_available

    if not shared_memory_available():
        pytest.skip("no shared memory on this host")
    bk = _process_backend(2)
    if bk.effective_ipc != "shm":
        bk.close()
        pytest.skip("shm transport not active")
    f = named_integrand("3D-f4")
    try:
        cfg = PaganiConfig(rel_tol=1e-3, backend=bk, chunk_budget=40_000)
        PaganiIntegrator(cfg).integrate(f, 3)
        first = (bk._in_arena.size, bk._out_arena.size)
        assert first[0] > 0 and first[1] > 0
        PaganiIntegrator(cfg).integrate(f, 3)
        # Same-shaped job: the arenas are reused, not reallocated.
        assert (bk._in_arena.size, bk._out_arena.size) == first
    finally:
        bk.close()
    assert bk._in_arena.size == 0
    assert bk._out_arena.size == 0
