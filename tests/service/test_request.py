"""IntegrationRequest ↔ JobSpec unification: fingerprint stability.

The request redesign routes ``integrate(...)`` kwargs, ``integrate_many``
members and ``service.JobSpec`` through one frozen
:class:`repro.api.IntegrationRequest`.  The cache's promise is that this
refactor moved **no bytes**: a job described by raw kwargs and the same
job described by a request that round-trips through
``JobSpec.from_request`` must produce identical SHA-256 fingerprints for
every spec in the cache test corpus — and the base corpus fingerprint
itself is pinned so any silent payload change fails loudly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import IntegrationRequest, integrate
from repro.backends import get_backend
from repro.errors import ConfigurationError
from repro.service import JobSpec, job_fingerprint

#: the cache suite's corpus (see test_cache.py): one base job plus every
#: single-field sensitivity variation, kept structurally consistent
#: (ndim variations swap in the matching catalogue integrand).  The
#: ``backend`` entries go into the request only: a backend never moves
#: the fingerprint.
BASE = dict(
    integrand_id="5d-f4",
    ndim=5,
    bounds=np.array([(0.0, 1.0)] * 5),
    rel_tol=1e-4,
    abs_tol=1e-20,
    max_iterations=None,
    relerr_filtering=True,
)

CORPUS = [
    {},
    {"integrand_id": "5d-f5"},
    {"integrand_id": "4d-f4", "ndim": 4, "bounds": np.array([(0.0, 1.0)] * 4)},
    {"bounds": np.array([(0.0, 2.0)] + [(0.0, 1.0)] * 4)},
    {"rel_tol": 1e-5},
    {"abs_tol": 1e-19},
    {"backend": "threaded"},
    {"backend": "auto"},
    {"max_iterations": 10},
    {"relerr_filtering": False},
    {"collect_traces": True},
]

#: the base corpus digest at fingerprint schema 3 (the dimension-major
#: evaluate sweep moved computed bits) — byte stability means this never
#: changes without a schema bump
PINNED_BASE_FINGERPRINT = (
    "8c6d4bbba404114f39b8eef8d14b05c1d0e8f36fd3c9647138da1bea5a16ee73"
)


def test_base_fingerprint_bytes_are_pinned():
    assert job_fingerprint(**BASE) == PINNED_BASE_FINGERPRINT


@pytest.mark.parametrize("change", CORPUS)
def test_request_roundtrip_reproduces_corpus_fingerprints(change):
    """kwargs path and IntegrationRequest→JobSpec path: identical SHA."""
    job = dict(BASE)
    job.update(change)
    collect_traces = job.pop("collect_traces", False)
    backend = job.pop("backend", "numpy")
    direct = job_fingerprint(**job, collect_traces=collect_traces)

    request = IntegrationRequest(
        bounds=job["bounds"],
        rel_tol=job["rel_tol"],
        abs_tol=job["abs_tol"],
        backend=backend,
        max_iterations=job["max_iterations"],
        relerr_filtering=job["relerr_filtering"],
    )
    spec = JobSpec.from_request(
        job["integrand_id"], request, ndim=job["ndim"]
    )
    resolved = spec.resolve()
    # Exactly the service's _admit computation on the resolved job.
    via_request = job_fingerprint(
        integrand_id=resolved.cache_id,
        ndim=resolved.ndim,
        bounds=resolved.bounds,
        rel_tol=spec.rel_tol,
        abs_tol=spec.abs_tol,
        max_iterations=spec.max_iterations,
        relerr_filtering=resolved.relerr_filtering,
        collect_traces=collect_traces,
    )
    assert via_request == direct


def test_jobspec_request_roundtrip_preserves_fields():
    request = IntegrationRequest(
        bounds=[(0.0, 2.0)] * 3, rel_tol=1e-5, abs_tol=1e-18,
        backend="process:4", max_iterations=7, relerr_filtering=False,
    )
    spec = JobSpec.from_request("3d-f4", request, priority=3, label="x")
    assert spec.priority == 3 and spec.label == "x"
    back = spec.to_request()
    assert back.bounds == request.bounds
    assert back.rel_tol == request.rel_tol
    assert back.abs_tol == request.abs_tol
    assert back.backend == "process:4"
    assert back.max_iterations == 7
    assert back.relerr_filtering is False


def test_from_request_flattens_backend_instances():
    bk = get_backend("threaded:2")
    request = IntegrationRequest(backend=bk)
    spec = JobSpec.from_request("3d-f4", request)
    assert spec.backend == "threaded"  # serialisable spec string


def test_from_request_rejects_non_pagani_methods():
    with pytest.raises(ConfigurationError, match="PAGANI"):
        JobSpec.from_request(
            "3d-f4", IntegrationRequest(method="cuhre")
        )


def test_request_kwarg_matches_kwargs_path():
    from repro.integrands.catalog import named_integrand

    f = named_integrand("3d-f4")
    via_kwargs = integrate(f, 3, rel_tol=1e-4, backend="numpy")
    via_request = integrate(
        f, 3, request=IntegrationRequest(rel_tol=1e-4, backend="numpy")
    )
    assert via_request.estimate == via_kwargs.estimate
    assert via_request.errorest == via_kwargs.errorest
    assert via_request.neval == via_kwargs.neval


def test_request_validates_method_and_tolerances():
    with pytest.raises(ConfigurationError, match="unknown method"):
        IntegrationRequest(method="simpson").validate()
    with pytest.raises(ConfigurationError, match="rel_tol"):
        IntegrationRequest(rel_tol=2.0).validate()
