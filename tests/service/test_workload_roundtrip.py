"""A transform-spec job rides the full stack, bit for bit.

The acceptance round-trip for the opened workload space: one
``semi_infinite(...)`` spec must produce the exact bits of a cold
in-process numpy run when (a) shipped to worker processes by name,
(b) submitted over HTTP with ``backend="auto"``, and (c) replayed from
the durable tiered cache after a server restart — also to a request
pinned to a different backend than the one that wrote the entry.
"""

import json
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

from repro.api import integrate, serve_http
from repro.integrands.catalog import named_integrand
from repro.service.store import result_to_payload

SPEC = "semi_infinite(3D-f4, scale=2.0)"
REL_TOL = 1e-3


def _request(method, url, body=None, timeout=30):
    req = urllib.request.Request(
        url, method=method,
        data=None if body is None else json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@contextmanager
def _server(**kwargs):
    kwargs.setdefault("port", 0)
    server = serve_http(**kwargs)
    try:
        yield server
    finally:
        server.close()


def _wait_done(base, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while True:
        code, body = _request("GET", f"{base}/v1/jobs/{job_id}")
        assert code == 200, body
        if body["status"] == "done":
            return body
        assert body["status"] in ("queued", "running"), body
        if time.monotonic() > deadline:
            raise AssertionError(f"job {job_id} stuck in {body['status']!r}")
        time.sleep(0.02)


def _cold_hex():
    f = named_integrand(SPEC)
    return result_to_payload(integrate(f, f.ndim, rel_tol=REL_TOL,
                                       backend="numpy"))


def _assert_bits(got_hex, want_hex):
    assert got_hex["estimate"] == want_hex["estimate"]
    assert got_hex["errorest"] == want_hex["errorest"]
    assert got_hex["neval"] == want_hex["neval"]


def test_transform_spec_ships_to_workers_bit_identical():
    # the spec travels to the worker processes by name (no pickled
    # closure), and the reference chunk decomposition reproduces the
    # numpy bits exactly
    f = named_integrand(SPEC)
    assert f.spec == "semi_infinite(3d-f4, scale=2.0)"
    res = integrate(f, f.ndim, rel_tol=REL_TOL, backend="process:2")
    _assert_bits(result_to_payload(res), _cold_hex())


def test_transform_job_http_auto_restart_replay(tmp_path):
    cold = _cold_hex()
    job = {"integrand": SPEC, "rel_tol": REL_TOL, "backend": "auto"}

    with _server(cache_dir=tmp_path / "cache") as server:
        code, body = _request("POST", server.url + "/v1/jobs", job)
        assert code == 202, body
        _wait_done(server.url, body["job_id"])
        code, res = _request(
            "GET", f"{server.url}/v1/jobs/{body['job_id']}/result"
        )
        assert code == 200
        assert res["result"]["converged"]
        # auto-routed execution reproduces the cold numpy bits
        _assert_bits(res["result_hex"], cold)

    # "restart": a brand-new server and service on the same durable
    # cache dir must replay the job from the store, bit-identically
    with _server(cache_dir=tmp_path / "cache") as server:
        code, body = _request("POST", server.url + "/v1/jobs", job)
        assert code == 202, body
        status = _wait_done(server.url, body["job_id"])
        assert status["cache_hit"] is True
        code, res = _request(
            "GET", f"{server.url}/v1/jobs/{body['job_id']}/result"
        )
        assert code == 200
        _assert_bits(res["result_hex"], cold)


def test_numpy_entry_replays_to_a_process_request(tmp_path):
    """Cache identity names no backend: every backend computes the same
    bits, so a durable entry a numpy server wrote serves a request
    pinned to ``process:2`` after a restart, without a fresh run."""
    cold = _cold_hex()
    job = {"integrand": SPEC, "rel_tol": REL_TOL}

    with _server(cache_dir=tmp_path / "cache", backend="numpy") as server:
        code, body = _request("POST", server.url + "/v1/jobs", job)
        assert code == 202, body
        first = _wait_done(server.url, body["job_id"])
        assert first["cache_hit"] is False

    pinned = dict(job, backend="process:2")
    with _server(cache_dir=tmp_path / "cache", backend="numpy") as server:
        code, body = _request("POST", server.url + "/v1/jobs", pinned)
        assert code == 202, body
        status = _wait_done(server.url, body["job_id"])
        assert status["cache_hit"] is True
        assert status["fingerprint"] == first["fingerprint"]
        assert server.service.stats()["rounds"] == 0  # no fresh run
        code, res = _request(
            "GET", f"{server.url}/v1/jobs/{body['job_id']}/result"
        )
        assert code == 200
        _assert_bits(res["result_hex"], cold)
