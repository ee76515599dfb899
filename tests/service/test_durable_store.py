"""Durable result store + tiered cache: restart bit-identity, corrupt-
entry quarantine, LRU<->durable promotion/demotion, concurrent writers."""

from __future__ import annotations

import json
import math
import sqlite3
import threading

import pytest

from repro.api import integrate
from repro.core.result import IntegrationResult, IterationRecord, Status
from repro.integrands.catalog import canonical_spec, named_integrand
from repro.service import IntegrationService
from repro.service.cache import job_fingerprint
from repro.service.store import (
    STORE_SCHEMA,
    DurableResultStore,
    StorePayloadError,
    TieredResultCache,
    result_from_payload,
    result_to_payload,
)


def sample_result(estimate=0.123456789, with_trace=True) -> IntegrationResult:
    trace = []
    if with_trace:
        trace = [
            IterationRecord(
                iteration=i, n_regions=2**i, n_active=2**i - 1,
                n_finished_relerr=1, n_finished_threshold=0,
                estimate=estimate * (1 + 1e-9 * i), errorest=1e-5 / (i + 1),
                finished_estimate=estimate / 2, finished_errorest=1e-6,
                neval=1000 * (i + 1), sim_seconds=0.25 * i,
            )
            for i in range(3)
        ]
    return IntegrationResult(
        estimate=estimate, errorest=3.0037e-7, status=Status.CONVERGED_REL,
        neval=123456, nregions=789, iterations=7, method="pagani",
        sim_seconds=0.0625, wall_seconds=1.5, trace=trace,
        true_value=0.1234567,
    )


def results_equal(a: IntegrationResult, b: IntegrationResult) -> bool:
    if not (
        a.estimate == b.estimate and a.errorest == b.errorest
        and a.status is b.status and a.neval == b.neval
        and a.nregions == b.nregions and a.iterations == b.iterations
        and a.method == b.method and a.sim_seconds == b.sim_seconds
        and a.wall_seconds == b.wall_seconds
        and len(a.trace) == len(b.trace)
    ):
        return False
    for ra, rb in zip(a.trace, b.trace):
        if ra != rb:
            return False
    return True


# ---------------------------------------------------------------------------
# payload round trip
# ---------------------------------------------------------------------------
def test_payload_roundtrip_is_bit_identical():
    res = sample_result()
    back = result_from_payload(result_to_payload(res))
    assert results_equal(res, back)
    assert back.true_value == res.true_value


def test_payload_roundtrip_survives_json():
    res = sample_result()
    back = result_from_payload(
        json.loads(json.dumps(result_to_payload(res)))
    )
    assert results_equal(res, back)


def test_payload_roundtrip_awkward_floats():
    res = sample_result(with_trace=False)
    res.estimate = float("inf")
    res.errorest = float("nan")
    res.true_value = None
    # 0x1.b7cdfd9d7bdbbp-34: a value a decimal repr would mangle
    res.sim_seconds = float.fromhex("0x1.b7cdfd9d7bdbbp-34")
    back = result_from_payload(json.loads(json.dumps(result_to_payload(res))))
    assert back.estimate == float("inf")
    assert math.isnan(back.errorest)
    assert back.true_value is None
    assert back.sim_seconds.hex() == res.sim_seconds.hex()


def test_payload_rejects_unknown_schema_and_garbage():
    good = result_to_payload(sample_result())
    bad_schema = dict(good, schema=STORE_SCHEMA + 1)
    with pytest.raises(StorePayloadError):
        result_from_payload(bad_schema)
    with pytest.raises(StorePayloadError):
        result_from_payload({"schema": STORE_SCHEMA})
    broken = dict(good, estimate="not-a-hex-float")
    with pytest.raises(StorePayloadError):
        result_from_payload(broken)


# ---------------------------------------------------------------------------
# DurableResultStore
# ---------------------------------------------------------------------------
def test_store_put_get_roundtrip(tmp_path):
    with DurableResultStore(tmp_path / "cache") as store:
        res = sample_result()
        store.put("fp-1", res)
        assert "fp-1" in store
        assert len(store) == 1
        got = store.get("fp-1")
        assert results_equal(res, got)
        assert store.hits == 1 and store.misses == 0
        assert store.get("fp-absent") is None
        assert store.misses == 1


def test_store_survives_reopen_bit_identically(tmp_path):
    res = sample_result()
    with DurableResultStore(tmp_path / "cache") as store:
        store.put("fp-1", res)
        path = store.path
    with DurableResultStore(path) as reopened:
        got = reopened.get("fp-1")
    assert results_equal(res, got)


def test_store_quarantines_corrupt_entry(tmp_path):
    with DurableResultStore(tmp_path / "cache") as store:
        store.put("fp-good", sample_result())
        store.put("fp-bad", sample_result())
        # corrupt one row behind the store's back (a truncated disk
        # write, hand editing, a schema from the future...)
        conn = sqlite3.connect(store.path)
        conn.execute(
            "UPDATE results SET payload = '{\"schema\": 999' "
            "WHERE fingerprint = 'fp-bad'"
        )
        conn.commit()
        conn.close()

        assert store.get("fp-bad") is None      # miss, not a crash
        assert store.quarantined == 1
        assert "fp-bad" not in store            # row moved out
        assert len(store) == 1
        # the quarantine table keeps the evidence
        conn = sqlite3.connect(store.path)
        rows = conn.execute(
            "SELECT fingerprint, reason FROM quarantine"
        ).fetchall()
        conn.close()
        assert rows[0][0] == "fp-bad"
        # the healthy row is untouched
        assert results_equal(store.get("fp-good"), sample_result())


def test_store_quarantines_wrong_schema_row(tmp_path):
    with DurableResultStore(tmp_path / "cache") as store:
        store.put("fp-1", sample_result())
        future = dict(result_to_payload(sample_result()),
                      schema=STORE_SCHEMA + 7)
        conn = sqlite3.connect(store.path)
        conn.execute(
            "UPDATE results SET payload = ? WHERE fingerprint = 'fp-1'",
            (json.dumps(future),),
        )
        conn.commit()
        conn.close()
        assert store.get("fp-1") is None
        assert store.quarantined == 1


def test_store_put_is_idempotent_last_write_wins(tmp_path):
    with DurableResultStore(tmp_path / "cache") as store:
        store.put("fp", sample_result(estimate=1.0))
        store.put("fp", sample_result(estimate=2.0))
        assert len(store) == 1
        assert store.get("fp").estimate == 2.0


def test_store_concurrent_writers(tmp_path):
    store = DurableResultStore(tmp_path / "cache")
    errors = []

    def writer(worker: int) -> None:
        try:
            for i in range(20):
                store.put(f"fp-{worker}-{i}", sample_result(estimate=i))
                assert store.get(f"fp-{worker}-{i}") is not None
        except Exception as exc:  # pragma: no cover - failure evidence
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(w,)) for w in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(store) == 80
    assert store.quarantined == 0
    store.close()


def test_store_clear_and_fingerprints(tmp_path):
    with DurableResultStore(tmp_path / "cache") as store:
        store.put("a", sample_result())
        store.put("b", sample_result())
        assert sorted(store.fingerprints()) == ["a", "b"]
        store.clear()
        assert len(store) == 0
        st = store.stats()
        assert st["entries"] == 0 and st["writes"] == 2


# ---------------------------------------------------------------------------
# TieredResultCache: promotion / demotion
# ---------------------------------------------------------------------------
def test_tiered_cache_write_through_and_memory_hit(tmp_path):
    cache = TieredResultCache(tmp_path / "cache", max_entries=4)
    res = sample_result()
    cache.put("fp", res)
    assert len(cache.store) == 1            # write-through
    got = cache.get("fp")
    assert results_equal(res, got)
    st = cache.stats()
    assert st["hits"] == 1 and st["memory_hits"] == 1
    assert st["durable_hits"] == 0          # served from the LRU
    cache.close()


def test_tiered_cache_eviction_demotes_not_deletes(tmp_path):
    cache = TieredResultCache(tmp_path / "cache", max_entries=2)
    for i in range(4):
        cache.put(f"fp-{i}", sample_result(estimate=float(i)))
    assert len(cache) == 2                  # LRU holds the newest two
    assert cache.evictions == 2
    assert len(cache.store) == 4            # durable tier kept everything
    # an evicted entry is a durable hit, then promoted back into the LRU
    got = cache.get("fp-0")
    assert got.estimate == 0.0
    st = cache.stats()
    assert st["durable_hits"] == 1
    assert "fp-0" in cache                  # promoted
    cache.close()


def test_tiered_cache_promotion_respects_capacity(tmp_path):
    cache = TieredResultCache(tmp_path / "cache", max_entries=2)
    for i in range(3):
        cache.put(f"fp-{i}", sample_result(estimate=float(i)))
    evictions_before = cache.evictions
    cache.get("fp-0")                       # durable hit -> promote
    assert len(cache) == 2                  # capacity still enforced
    assert cache.evictions == evictions_before + 1
    cache.close()


def test_tiered_cache_miss_counts_once(tmp_path):
    cache = TieredResultCache(tmp_path / "cache", max_entries=2)
    assert cache.get("nope") is None
    assert cache.misses == 1
    assert cache.store.misses == 1
    cache.close()


def test_tiered_cache_restart_replay(tmp_path):
    res = sample_result()
    cache = TieredResultCache(tmp_path / "cache", max_entries=4)
    cache.put("fp", res)
    cache.close()
    # a new process: fresh LRU, same directory
    cache2 = TieredResultCache(tmp_path / "cache", max_entries=4)
    assert len(cache2) == 0
    got = cache2.get("fp")
    assert results_equal(res, got)
    assert cache2.stats()["durable_hits"] == 1
    cache2.close()


def test_tiered_cache_rejects_bad_capacity(tmp_path):
    with pytest.raises(ValueError):
        TieredResultCache(tmp_path / "cache", max_entries=0)


# ---------------------------------------------------------------------------
# service-level restart replay: the durability contract end to end
# ---------------------------------------------------------------------------
def test_service_restart_replays_bit_identical_results(tmp_path):
    f = named_integrand("3D-f4")
    cold = integrate(f, f.ndim, rel_tol=1e-3)

    cache = TieredResultCache(tmp_path / "cache", max_entries=8)
    with IntegrationService(max_concurrent=2, cache=cache) as svc:
        first = svc.submit("3D-f4", rel_tol=1e-3)
        warm_res = first.result(timeout=300)
        fingerprint = first.stats.fingerprint
    cache.close()
    assert warm_res.estimate == cold.estimate
    assert warm_res.errorest == cold.errorest

    # "restart": new service, new LRU, same cache dir
    cache2 = TieredResultCache(tmp_path / "cache", max_entries=8)
    with IntegrationService(max_concurrent=2, cache=cache2) as svc:
        replay = svc.submit("3D-f4", rel_tol=1e-3)
        replay_res = replay.result(timeout=300)
        assert replay.cache_hit
        assert replay.stats.fingerprint == fingerprint
    assert cache2.stats()["durable_hits"] == 1
    cache2.close()

    assert replay_res.estimate == cold.estimate
    assert replay_res.errorest == cold.errorest
    assert replay_res.neval == cold.neval
    assert replay_res.iterations == cold.iterations


def test_fingerprint_is_store_key(tmp_path):
    """The durable tier uses the *same* fingerprint the LRU uses — no
    second identity scheme."""
    cache = TieredResultCache(tmp_path / "cache", max_entries=4)
    with IntegrationService(max_concurrent=2, cache=cache) as svc:
        handle = svc.submit("3D-f4", rel_tol=1e-3)
        handle.result(timeout=300)
        fp = handle.stats.fingerprint
    assert fp in cache.store.fingerprints()
    expected = job_fingerprint(
        integrand_id=canonical_spec("3D-f4"), ndim=3,
        bounds=[(0.0, 1.0)] * 3, rel_tol=1e-3, abs_tol=1e-20,
        max_iterations=None, relerr_filtering=True, collect_traces=False,
    )
    assert fp == expected
    cache.close()
