"""Tests for the batched multi-integrand execution layer.

The load-bearing guarantee is the first test: ``integrate_many`` on the
numpy backend reproduces a loop of sequential ``integrate`` calls
bit-for-bit, member by member.  Everything the scheduler does — fusing
chunk submissions, rotating service order, early member exit — must be
invisible in the numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import integrate, integrate_many
from repro.backends import get_backend
from repro.batch import RULE_CACHE, BatchScheduler, RuleCache
from repro.core.pagani import PaganiConfig, PaganiIntegrator
from repro.errors import ConfigurationError
from repro.gpu.device import DeviceSpec, VirtualDevice
from repro.integrands.genz import GenzFamily, make_genz
from tests.conftest import gaussian_nd


def genz_batch(dims=(2, 3), seed0=0):
    """One member per (family, dim) — all six families represented."""
    return [
        make_genz(fam, d, seed=seed0 + i)
        for i, (fam, d) in enumerate(
            (f, d) for f in GenzFamily for d in dims
        )
    ]


# ---------------------------------------------------------------------------
# Bit-identity with sequential execution (the acceptance contract)
# ---------------------------------------------------------------------------
def test_integrate_many_bit_identical_to_sequential_numpy():
    members = genz_batch()  # 12 Genz integrands, six families, two dims
    assert len(members) >= 8
    sequential = [integrate(f, f.ndim, rel_tol=1e-3, backend="numpy")
                  for f in members]
    batched = integrate_many(members, rel_tol=1e-3, backend="numpy")
    assert len(batched) == len(members)
    for f, rs, rb in zip(members, sequential, batched):
        assert rb.estimate == rs.estimate, f.name
        assert rb.errorest == rs.errorest, f.name
        assert rb.iterations == rs.iterations, f.name
        assert rb.neval == rs.neval, f.name
        assert rb.nregions == rs.nregions, f.name
        assert rb.status is rs.status, f.name
        assert rb.sim_seconds == rs.sim_seconds, f.name
        assert rb.true_value == rs.true_value, f.name


def test_integrate_many_threaded_is_bit_identical():
    """The threaded lane fuses at its own chunk grain; the grain never
    changes a bit, so every member matches sequential numpy exactly."""
    members = genz_batch(dims=(2, 3))[:6]
    sequential = [integrate(f, f.ndim, rel_tol=1e-3, backend="numpy")
                  for f in members]
    batched = integrate_many(members, rel_tol=1e-3, backend="threaded")
    for f, rs, rb in zip(members, sequential, batched):
        assert rb.estimate == rs.estimate, f.name
        assert rb.errorest == rs.errorest, f.name
        assert rb.iterations == rs.iterations, f.name
        assert rb.neval == rs.neval, f.name
        assert rb.status is rs.status, f.name


# ---------------------------------------------------------------------------
# Scheduler fairness and early exit
# ---------------------------------------------------------------------------
def _run_for(f, rel_tol=1e-3, mem_mb=None):
    cfg = PaganiConfig(rel_tol=rel_tol, backend="numpy")
    device = (
        VirtualDevice(DeviceSpec.scaled(mem_mb=mem_mb)) if mem_mb else None
    )
    return PaganiIntegrator(cfg, device=device).start_run(f, f.ndim)


def test_round_robin_serves_every_live_member_each_round():
    # Mixed difficulty: the sharp Gaussian iterates far longer than the
    # near-constant easy members, which must not be starved before their
    # exit nor hold the hard member back after it.
    members = [gaussian_nd(2, c=2.0), gaussian_nd(3, c=900.0), gaussian_nd(2, c=5.0)]
    sched = BatchScheduler(backend="numpy")
    runs = [_run_for(f, rel_tol=1e-7) for f in members]
    for run in runs:
        sched.add(run)
    results = sched.run()
    stats = sched.stats
    assert stats.peak_live == 3
    assert stats.rounds == max(r.iterations for r in results)
    for i, res in enumerate(results):
        # Fairness: a member is served exactly once per round it is live,
        # so its service count equals its iteration count, and it exits in
        # the round of its final iteration.
        assert stats.iterations_served[i] == res.iterations
        assert stats.exit_round[i] == res.iterations
        assert res.converged
        assert res.estimate == pytest.approx(members[i].reference, rel=1e-7)


def test_early_exit_releases_member_memory_immediately():
    easy = gaussian_nd(2, c=2.0)
    hard = gaussian_nd(3, c=900.0)
    sched = BatchScheduler(backend="numpy")
    easy_run = _run_for(easy, rel_tol=1e-6, mem_mb=64)
    hard_run = _run_for(hard, rel_tol=1e-9, mem_mb=64)
    sched.add(easy_run)
    sched.add(hard_run)
    while not easy_run.finished:
        sched.run_round()
    # The converged member's region store is gone and its device memory
    # accounting is back to zero — while the straggler still holds live
    # regions and keeps iterating.
    assert easy_run.store is None
    assert easy_run.device.memory.in_use == 0
    assert not hard_run.finished
    assert hard_run.store is not None
    assert hard_run.device.memory.in_use > 0
    sched.run()
    assert hard_run.finished
    assert hard_run.device.memory.in_use == 0
    assert easy_run.result.converged and hard_run.result.converged


def test_scheduler_rejects_foreign_backend_and_finished_runs():
    sched = BatchScheduler(backend="numpy")
    foreign = PaganiIntegrator(
        PaganiConfig(backend="threaded")
    ).start_run(gaussian_nd(2), 2)
    with pytest.raises(ConfigurationError):
        sched.add(foreign)
    foreign.abandon()
    done = _run_for(gaussian_nd(2))
    while not done.finished:
        done.step()
    with pytest.raises(ConfigurationError):
        sched.add(done)


def test_failing_member_is_isolated_and_batch_recovers():
    def flaky(x):
        raise ValueError("bad integrand input")

    flaky.ndim = 2
    healthy = [gaussian_nd(3, c=900.0), gaussian_nd(2, c=5.0)]
    sched = BatchScheduler(backend="numpy")
    runs = [
        _run_for(healthy[0], rel_tol=1e-7),
        PaganiIntegrator(
            PaganiConfig(rel_tol=1e-6, backend="numpy")
        ).start_run(flaky, 2),
        _run_for(healthy[1], rel_tol=1e-7),
    ]
    for run in runs:
        sched.add(run)
    with pytest.raises(RuntimeError, match="batch member 1 raised"):
        sched.run()
    # The offender is dead, the others are intact and continue to results.
    assert runs[1].finished and not runs[1].has_result
    assert runs[1].store is None
    results = sched.run()
    assert results[1] is None
    for k in (0, 2):
        assert results[k].converged
        assert results[k].estimate == pytest.approx(
            healthy[0 if k == 0 else 1].reference, rel=1e-7
        )


def test_prepare_failure_rolls_back_already_prepared_members():
    sched = BatchScheduler(backend="numpy")
    good = _run_for(gaussian_nd(2), rel_tol=1e-6)
    bad = _run_for(gaussian_nd(3), rel_tol=1e-6)
    sched.add(good)
    sched.add(bad)
    # Wedge the second member's phase protocol so its prepare_evaluation
    # inside the round raises after the first member is already prepared.
    bad.prepare_evaluation()
    with pytest.raises(RuntimeError):
        sched.run_round()
    # The good member rolled back cleanly and can still run to completion.
    assert not good.finished
    while not good.finished:
        good.step()
    assert good.result.converged


def test_integrator_survives_raising_integrand():
    def bad(x):
        raise ValueError("boom")

    integ = PaganiIntegrator(PaganiConfig(rel_tol=1e-3))
    with pytest.raises(ValueError):
        integ.integrate(bad, 2)
    # The failed run must not hold the device hostage.
    res = integ.integrate(gaussian_nd(2), 2)
    assert res.converged


def test_integrate_many_skip_mode_returns_none_for_failed_member():
    from repro.batch import BatchMemberError

    def bad(x):
        raise ValueError("boom")

    bad.ndim = 2
    members = [gaussian_nd(3, c=900.0), bad, gaussian_nd(2)]
    with pytest.raises(BatchMemberError):
        integrate_many(members, rel_tol=1e-6)
    results = integrate_many(members, rel_tol=1e-6, on_member_error="skip")
    assert results[1] is None
    assert results[0].converged and results[2].converged
    assert results[0].estimate == pytest.approx(members[0].reference, rel=1e-6)
    with pytest.raises(ConfigurationError):
        integrate_many(members, on_member_error="bogus")


def test_prepare_failure_leaves_counters_consistent():
    # A failed preparation (rolled back by the scheduler) must not inflate
    # nregions: the invariant nregions == sum(trace n_regions) holds.
    run = _run_for(gaussian_nd(2), rel_tol=1e-6)
    run.prepare_evaluation()
    regions_before = run.total_regions
    with pytest.raises(RuntimeError):
        run.prepare_evaluation()  # double-prepare refused, counters intact
    assert run.total_regions == regions_before
    run.cancel_evaluation()
    assert run.total_regions == regions_before - run._m
    while not run.finished:
        run.step()
    res = run.result
    assert res.nregions == sum(r.n_regions for r in res.trace)


def test_submission_failure_rolls_back_whole_round():
    # An exception escaping run_chunks itself (interrupt, dead pool) must
    # leave every member re-preparable, not wedged with a pending _ev.
    sched = BatchScheduler(backend="numpy")
    runs = [_run_for(gaussian_nd(2), rel_tol=1e-6),
            _run_for(gaussian_nd(3), rel_tol=1e-6)]
    for run in runs:
        sched.add(run)

    real_backend = sched.backend

    class FailingOnce:
        def __init__(self):
            self.failed = False

        def run_chunks(self, tasks):
            self.failed = True
            raise KeyboardInterrupt

        def __getattr__(self, name):
            return getattr(real_backend, name)

    failer = FailingOnce()
    sched.backend = failer
    with pytest.raises(KeyboardInterrupt):
        sched.run_round()
    assert failer.failed
    sched.backend = real_backend
    results = sched.run()  # every member recovered and re-prepared
    assert all(r.converged for r in results)
    for run, res in zip(runs, results):
        assert res.nregions == sum(t.n_regions for t in res.trace)


def test_completion_failure_abandons_member_and_unwedges_rest():
    sched = BatchScheduler(backend="numpy")
    runs = [_run_for(gaussian_nd(2), rel_tol=1e-6),
            _run_for(gaussian_nd(3), rel_tol=1e-6)]
    for run in runs:
        sched.add(run)
    original = runs[0].complete_iteration
    runs[0].complete_iteration = lambda: (_ for _ in ()).throw(
        MemoryError("split blew up")
    )
    with pytest.raises(MemoryError):
        sched.run_round()
    # The raising member is abandoned; the other rolled back and the
    # batch finishes without it.
    assert runs[0].finished and not runs[0].has_result
    runs[0].complete_iteration = original
    results = sched.run()
    assert results[0] is None and results[1].converged
    assert results[1].nregions == sum(t.n_regions for t in results[1].trace)


def test_ragged_bounds_raise_configuration_error():
    flat = lambda x: np.ones(x.shape[0])
    with pytest.raises(ConfigurationError):
        integrate_many(
            [flat, flat], ndim=2,
            bounds=[[(0.0, 1.0), (0.0, 1.0)], [(0.0, 1.0)]],
        )


def test_one_live_run_per_integrator():
    # Starting a run resets the integrator's device clock and memory
    # pool, so a second concurrent run on the same integrator would
    # corrupt the first's accounting; it must be refused up front.
    integ = PaganiIntegrator(PaganiConfig(rel_tol=1e-3))
    run = integ.start_run(gaussian_nd(3), 3)
    with pytest.raises(ConfigurationError):
        integ.start_run(gaussian_nd(2), 2)
    run.abandon()
    integ.start_run(gaussian_nd(2), 2).abandon()  # finished run frees the slot
    # Sequential reuse (integrate in a loop) keeps working.
    assert integ.integrate(gaussian_nd(2), 2).converged
    assert integ.integrate(gaussian_nd(2), 2).converged


def test_run_phase_protocol_misuse_raises():
    run = _run_for(gaussian_nd(2))
    with pytest.raises(RuntimeError):
        run.complete_iteration()  # nothing prepared
    tasks = run.prepare_evaluation()
    with pytest.raises(RuntimeError):
        run.prepare_evaluation()  # double prepare
    for t in tasks:
        t()
    run.complete_iteration()
    run.abandon()
    with pytest.raises(RuntimeError):
        run.prepare_evaluation()  # finished
    with pytest.raises(RuntimeError):
        _ = _run_for(gaussian_nd(2)).result  # unfinished result


# ---------------------------------------------------------------------------
# integrate_many argument handling
# ---------------------------------------------------------------------------
def test_empty_batch():
    assert integrate_many([]) == []
    results, stats = integrate_many([], return_stats=True)
    assert results == [] and stats.rounds == 0


def test_ndim_resolution_and_errors():
    g2 = gaussian_nd(2)
    with pytest.raises(ConfigurationError):
        integrate_many([lambda x: x[:, 0]])  # no ndim attribute
    res = integrate_many([lambda x: np.ones(x.shape[0])], ndim=2, rel_tol=1e-3)
    assert res[0].estimate == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(ConfigurationError):
        integrate_many([g2, g2], ndim=[2])  # length mismatch


def test_bounds_shared_and_per_member():
    flat = lambda x: np.ones(x.shape[0])
    shared = integrate_many(
        [flat, flat], ndim=2, bounds=[(0.0, 2.0), (0.0, 3.0)], rel_tol=1e-3
    )
    assert [r.estimate for r in shared] == pytest.approx([6.0, 6.0], rel=1e-9)
    per_member = integrate_many(
        [flat, flat], ndim=2,
        bounds=[[(0.0, 1.0), (0.0, 1.0)], [(0.0, 2.0), (0.0, 2.0)]],
        rel_tol=1e-3,
    )
    assert [r.estimate for r in per_member] == pytest.approx(
        [1.0, 4.0], rel=1e-9
    )
    mixed = integrate_many(
        [flat, flat], ndim=2, bounds=[None, [(0.0, 2.0), (0.0, 1.0)]],
        rel_tol=1e-3,
    )
    assert [r.estimate for r in mixed] == pytest.approx([1.0, 2.0], rel=1e-9)
    as_array = integrate_many(
        [flat, flat], ndim=2,
        bounds=np.array([[[0.0, 1.0], [0.0, 1.0]], [[0.0, 2.0], [0.0, 2.0]]]),
        rel_tol=1e-3,
    )
    assert [r.estimate for r in as_array] == pytest.approx(
        [1.0, 4.0], rel=1e-9
    )
    with pytest.raises(ConfigurationError):
        integrate_many([flat], ndim=2, bounds=[(0.0, 1.0)])


def test_mixed_dimensionalities_in_one_batch():
    members = [gaussian_nd(2), gaussian_nd(4), gaussian_nd(3)]
    res = integrate_many(members, rel_tol=1e-5)
    for f, r in zip(members, res):
        assert r.converged
        assert r.estimate == pytest.approx(f.reference, rel=1e-5)
        assert r.true_value == pytest.approx(f.reference)


def test_return_stats_counts_fused_submissions():
    members = genz_batch(dims=(2,))[:6]
    results, stats = integrate_many(members, rel_tol=1e-3, return_stats=True)
    assert stats.fused_submissions == stats.rounds
    assert stats.rounds == max(r.iterations for r in results)
    assert stats.chunks_submitted >= stats.rounds  # >= 1 chunk per round
    assert stats.peak_live == len(members)


# ---------------------------------------------------------------------------
# RuleCache
# ---------------------------------------------------------------------------
def test_rule_cache_shares_tensors_per_backend():
    from repro.cubature.rules import get_rule

    cache = RuleCache()
    bk = get_backend("numpy")
    rule = get_rule(4)
    a = cache.device_rule(rule, bk)
    b = cache.device_rule(rule, bk)
    assert a is b  # one build per (backend, ndim)
    assert cache.stats() == {"backends": 1, "rules": 1}
    cache.device_rule(get_rule(3), bk)
    assert cache.stats()["rules"] == 2
    np.testing.assert_array_equal(np.asarray(a.points), rule.points)
    cache.clear()
    assert cache.stats() == {"backends": 0, "rules": 0}


def test_process_wide_cache_is_populated_by_evaluation():
    # Any integrate call routes through the shared cache instance.
    integrate(gaussian_nd(2), 2, rel_tol=1e-2)
    assert RULE_CACHE.stats()["rules"] >= 1
