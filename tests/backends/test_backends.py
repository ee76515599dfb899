"""Protocol-conformance suite for the array-execution backends.

Every registered backend that is available on the host runs the same
battery: primitive semantics against the NumPy reference, the
chunk-execution contract, and end-to-end PAGANI agreement on Genz
integrands.  Host backends must match the NumPy reference **exactly**
(bit-identical estimates and errors).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import integrate
from repro.backends import (
    ArrayBackend,
    BackendSpec,
    BackendUnavailableError,
    NumpyBackend,
    ThreadedNumpyBackend,
    available_backends,
    backend_spec_help,
    get_backend,
    new_backend,
    resolve_backend,
)
from repro.backends import process as process_module
from repro.backends.routing import BackendRouter
from repro.core.pagani import PaganiConfig, PaganiIntegrator
from repro.cubature.evaluation import evaluate_regions
from repro.cubature.rules import get_rule
from repro.errors import ConfigurationError
from repro.integrands.catalog import named_integrand
from repro.integrands.genz import GenzFamily, make_genz

#: every backend we try; unavailable ones skip rather than fail.  All
#: share NumPy's array library *and* chunk arithmetic, so all must be
#: bit-identical to it.
ALL_BACKEND_SPECS = [
    "numpy", "threaded", "threaded:2", "process", "process:2",
]
OTHER_SPECS = [s for s in ALL_BACKEND_SPECS if s != "numpy"]


def _backend_or_skip(spec: str) -> ArrayBackend:
    try:
        return get_backend(spec)
    except BackendUnavailableError as exc:
        pytest.skip(f"backend {spec} unavailable: {exc}")


@pytest.fixture(params=ALL_BACKEND_SPECS)
def backend(request) -> ArrayBackend:
    return _backend_or_skip(request.param)


# ---------------------------------------------------------------------------
# Registry / spec resolution
# ---------------------------------------------------------------------------
def test_numpy_always_available():
    assert "numpy" in available_backends()
    assert "threaded" in available_backends()


def test_get_backend_defaults_and_singletons():
    assert get_backend(None) is get_backend("numpy")
    assert isinstance(get_backend("numpy"), NumpyBackend)


def test_get_backend_instance_passthrough():
    bk = ThreadedNumpyBackend(num_threads=2)
    assert get_backend(bk) is bk


def test_get_backend_threaded_spec_parses_width():
    assert get_backend("threaded:3").num_threads == 3


def test_get_backend_process_spec_parses_width():
    assert get_backend("process:3").num_workers == 3


def test_new_backend_builds_fresh_instances():
    from repro.backends import new_backend

    a = new_backend("threaded:2")
    b = new_backend("threaded:2")
    assert a is not b                      # isolated instances per call
    assert get_backend("threaded:2") is get_backend("threaded:2")
    inst = get_backend("numpy")
    assert new_backend(inst) is inst       # instances pass through


@pytest.mark.parametrize(
    "spec",
    ["nope", "threaded:x", "process:x", "numpy:4", 3.5,
     "cupy", "numba", "numba:2"],
)
def test_get_backend_rejects_bad_specs(spec):
    with pytest.raises(ConfigurationError):
        get_backend(spec)


def test_backend_spec_help_lists_the_registry():
    assert backend_spec_help() == "numpy, process[:N], threaded[:N]"


# ---------------------------------------------------------------------------
# resolve_backend / BackendSpec: the one authoritative spec parser
# ---------------------------------------------------------------------------
def test_resolve_backend_parses_plain_and_width_specs():
    assert resolve_backend("numpy") == BackendSpec("numpy")
    assert resolve_backend("threaded") == BackendSpec("threaded")
    assert resolve_backend("process:8") == BackendSpec("process", 8)
    assert resolve_backend("auto") == BackendSpec("auto")


def test_resolve_backend_none_is_the_reference_backend():
    assert resolve_backend(None) == BackendSpec("numpy")


def test_resolve_backend_instance_and_spec_passthrough():
    bk = get_backend("numpy")
    assert resolve_backend(bk) == BackendSpec("numpy")
    parsed = BackendSpec("threaded", 4)
    assert resolve_backend(parsed) is parsed


def test_backend_spec_roundtrips_to_canonical_string():
    assert BackendSpec("numpy").spec == "numpy"
    assert BackendSpec("threaded", 2).spec == "threaded:2"
    assert resolve_backend(BackendSpec("process", 4).spec) == BackendSpec(
        "process", 4
    )


@pytest.mark.parametrize("bad", ["process:x", "process:", "threaded:2.5"])
def test_resolve_backend_rejects_malformed_width(bad):
    with pytest.raises(ConfigurationError, match="bad worker count"):
        resolve_backend(bad)


def test_resolve_backend_rejects_non_specs():
    with pytest.raises(ConfigurationError, match="name or ArrayBackend"):
        resolve_backend(3.5)


# ---------------------------------------------------------------------------
# Probe gating: a host that cannot build a process pool degrades loudly
# ---------------------------------------------------------------------------
def test_unavailable_probe_blocks_construction(monkeypatch):
    monkeypatch.setattr(
        process_module, "_POOL_PROBE", (False, "OSError: forced off")
    )
    with pytest.raises(BackendUnavailableError, match="forced off"):
        new_backend("process")
    with pytest.raises(BackendUnavailableError):
        new_backend("process:2")
    assert "process" not in available_backends()


def test_unavailable_probe_removes_router_candidate(monkeypatch):
    monkeypatch.setattr(
        process_module, "_POOL_PROBE", (False, "OSError: forced off")
    )
    router = BackendRouter(process_width=2)
    assert router._candidates() == ["numpy"]


def test_forced_probe_advertises_router_candidate():
    router = BackendRouter(process=True, process_width=2)
    assert "process:2" in router._candidates()
    decision = router.decide(6)
    assert "process:2" in decision.predicted_seconds


# ---------------------------------------------------------------------------
# Primitive semantics (vs the NumPy reference implementation)
# ---------------------------------------------------------------------------
def test_reductions_match_numpy(backend, rng):
    vals = rng.standard_normal(1000)
    a = backend.asarray(vals)
    assert backend.reduce_sum(a) == pytest.approx(float(np.sum(vals)), rel=1e-14)
    assert backend.minmax(a) == (float(vals.min()), float(vals.max()))
    b = backend.asarray(rng.standard_normal(1000))
    assert backend.dot(a, b) == pytest.approx(
        float(np.dot(vals, backend.to_numpy(b))), rel=1e-13
    )
    # scalars come back as Python numbers (device sync points)
    assert isinstance(backend.reduce_sum(a), float)
    assert isinstance(backend.count_nonzero(a > 0), int)


def test_scan_and_compress(backend, rng):
    flags = (rng.random(257) > 0.4).astype(np.int64)
    scan = backend.to_numpy(backend.exclusive_scan(backend.asarray(flags)))
    ref = np.concatenate(([0], np.cumsum(flags)[:-1]))
    np.testing.assert_array_equal(scan, ref)

    mask = backend.asarray(flags.astype(bool))
    data = backend.asarray(rng.standard_normal((257, 3)))
    kept = backend.to_numpy(backend.compress(mask, data))
    np.testing.assert_array_equal(
        kept, backend.to_numpy(data)[flags.astype(bool)]
    )


def test_count_nonzero_matches(backend):
    flags = backend.asarray(np.array([True, False, True, True, False]))
    assert backend.count_nonzero(flags) == 3


def test_map_integrand_coerces_dtype(backend):
    pts = backend.asarray(np.linspace(0, 1, 12).reshape(4, 3))
    out = backend.map_integrand(
        lambda x: (np.sum(x, axis=1) > 1.0), pts  # bool-valued integrand
    )
    host = backend.to_numpy(out)
    assert host.dtype == np.float64
    assert host.shape == (4,)


def test_run_chunks_executes_all_disjoint_slices(backend):
    out = backend.xp.zeros(64)

    def task(lo, hi):
        def work():
            out[lo:hi] = lo
        return work

    backend.run_chunks([task(i, i + 8) for i in range(0, 64, 8)])
    host = backend.to_numpy(out)
    np.testing.assert_array_equal(host, np.repeat(np.arange(0, 64, 8), 8))


def test_run_chunks_propagates_worker_errors():
    bk = ThreadedNumpyBackend(num_threads=2)

    def boom():
        raise RuntimeError("worker exploded")

    with pytest.raises(RuntimeError, match="worker exploded"):
        bk.run_chunks([boom, boom])
    bk.close()


# ---------------------------------------------------------------------------
# Evaluate-sweep agreement
# ---------------------------------------------------------------------------
def test_evaluate_regions_matches_reference(backend, rng):
    ndim = 4
    rule = get_rule(ndim)
    m = 37
    centers = rng.random((m, ndim)) * 0.8 + 0.1
    halfw = np.full((m, ndim), 0.05)
    f = make_genz(GenzFamily.GAUSSIAN, ndim, seed=3)

    ref = evaluate_regions(rule, centers, halfw, f, error_model="cascade")
    got = evaluate_regions(
        rule, centers, halfw, f, error_model="cascade",
        chunk_budget=rule.npoints * ndim * 8,  # force many chunks
        backend=backend,
    )
    est = backend.to_numpy(got.estimate)
    err = backend.to_numpy(got.error)
    np.testing.assert_allclose(est, ref.estimate, rtol=1e-13)
    np.testing.assert_allclose(err, ref.error, rtol=1e-12, atol=1e-300)
    np.testing.assert_array_equal(
        backend.to_numpy(got.split_axis), ref.split_axis
    )
    assert got.neval == ref.neval


# ---------------------------------------------------------------------------
# End-to-end PAGANI agreement on the Genz suite
# ---------------------------------------------------------------------------
GENZ_CASES = [
    (GenzFamily.GAUSSIAN, 4),
    (GenzFamily.PRODUCT_PEAK, 3),
    (GenzFamily.CORNER_PEAK, 3),
    (GenzFamily.C0, 3),
]


@pytest.mark.parametrize("spec", OTHER_SPECS)
@pytest.mark.parametrize("family,ndim", GENZ_CASES)
def test_pagani_genz_agreement_with_numpy(spec, family, ndim):
    _backend_or_skip(spec)
    f = make_genz(family, ndim, seed=7)
    results = {}
    for bk in ("numpy", spec):
        cfg = PaganiConfig(rel_tol=1e-4, max_iterations=12, backend=bk)
        results[bk] = PaganiIntegrator(cfg).integrate(f, ndim)
    ref, got = results["numpy"], results[spec]
    # same array library, same chunking => bit-identical
    assert got.estimate == ref.estimate
    assert got.errorest == ref.errorest
    assert got.neval == ref.neval
    assert got.iterations == ref.iterations
    assert got.status == ref.status
    # both land on the true value within tolerance
    assert abs(got.estimate - f.reference) <= 3e-4 * abs(f.reference)


# One spec per transform family: the canonical spec must make each
# transformed integrand process-shippable *and* bit-identical across the
# host backends, exactly like a plain catalogue integrand.
TRANSFORM_SPECS = [
    "semi_infinite(3D-f4, scale=2.0)",
    "infinite(2D-genz-gaussian, scale=1.5)",
    "gaussian_measure(2D-f4, mean=0.5, sigma=0.8)",
]


@pytest.mark.parametrize("spec", OTHER_SPECS)
@pytest.mark.parametrize("tspec", TRANSFORM_SPECS)
def test_pagani_transform_agreement_with_numpy(spec, tspec):
    _backend_or_skip(spec)
    results = {}
    for bk in ("numpy", spec):
        f = named_integrand(tspec)
        cfg = PaganiConfig(rel_tol=1e-4, max_iterations=12, backend=bk)
        results[bk] = PaganiIntegrator(cfg).integrate(f, f.ndim)
    ref, got = results["numpy"], results[spec]
    assert got.estimate == ref.estimate
    assert got.errorest == ref.errorest
    assert got.neval == ref.neval
    assert got.status == ref.status


def test_api_backend_keyword_roundtrip(gaussian3):
    ref = integrate(gaussian3, 3, rel_tol=1e-4)
    thr = integrate(gaussian3, 3, rel_tol=1e-4, backend="threaded")
    assert thr.estimate == ref.estimate
    assert thr.errorest == ref.errorest


def test_api_rejects_backend_for_baselines(gaussian3):
    with pytest.raises(ConfigurationError, match="pagani"):
        integrate(gaussian3, 3, method="cuhre", backend="threaded")


def test_config_rejects_unknown_backend():
    with pytest.raises(ConfigurationError):
        PaganiIntegrator(PaganiConfig(backend="not-a-backend"))
