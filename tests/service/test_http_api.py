"""HTTP front end: endpoint round-trips, error paths (400/404/409/410/
429), cancellation over HTTP, metrics, and wire-level bit-identity."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.api import integrate, serve_http
from repro.integrands.catalog import named_integrand
from repro.service import IntegrationService
from repro.service.http import HttpIntegrationServer
from repro.service.store import result_to_payload


def request(method, url, body=None, timeout=30):
    """(status_code, json_payload, headers) for one request."""
    req = urllib.request.Request(
        url, method=method,
        data=None if body is None else json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


@contextmanager
def http_server(**kwargs):
    kwargs.setdefault("port", 0)
    server = serve_http(**kwargs)
    try:
        yield server
    finally:
        server.close()


def wait_status(base, job_id, want, timeout=120.0):
    """Poll until the job's status is in ``want``; returns the payload."""
    deadline = time.monotonic() + timeout
    while True:
        code, body, _ = request("GET", f"{base}/v1/jobs/{job_id}")
        assert code == 200, body
        if body["status"] in want:
            return body
        if time.monotonic() > deadline:
            raise AssertionError(
                f"job {job_id} stuck in {body['status']!r}, wanted {want}"
            )
        time.sleep(0.02)


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------
def test_submit_poll_result_roundtrip_bit_identical():
    f = named_integrand("3D-f4")
    cold = integrate(f, f.ndim, rel_tol=1e-3)
    cold_hex = result_to_payload(cold)

    with http_server() as server:
        base = server.url
        code, body, _ = request(
            "POST", base + "/v1/jobs",
            {"integrand": "3D-f4", "rel_tol": 1e-3, "priority": 2},
        )
        assert code == 202
        job = body["job_id"]
        assert body["location"] == f"/v1/jobs/{job}"

        status = wait_status(base, job, ("done",))
        assert status["priority"] == 2
        assert status["fingerprint"]
        assert status["total_seconds"] > 0

        code, res, _ = request("GET", f"{base}/v1/jobs/{job}/result")
        assert code == 200
        assert res["result"]["converged"]
        # over-the-wire bit-identity with a cold in-process run
        assert res["result_hex"]["estimate"] == cold_hex["estimate"]
        assert res["result_hex"]["errorest"] == cold_hex["errorest"]
        assert res["result_hex"]["neval"] == cold_hex["neval"]
        # and the decimal view agrees with itself
        assert res["result"]["estimate"] == pytest.approx(cold.estimate)


def test_duplicate_submission_served_from_cache():
    with http_server() as server:
        base = server.url
        spec = {"integrand": "3D-f4", "rel_tol": 1e-3}
        _, first, _ = request("POST", base + "/v1/jobs", spec)
        wait_status(base, first["job_id"], ("done",))
        _, dup, _ = request("POST", base + "/v1/jobs", spec)
        status = wait_status(base, dup["job_id"], ("done",))
        assert status["cache_hit"] is True
        code, a, _ = request(
            "GET", f"{base}/v1/jobs/{first['job_id']}/result"
        )
        code, b, _ = request(
            "GET", f"{base}/v1/jobs/{dup['job_id']}/result"
        )
        assert a["result_hex"]["estimate"] == b["result_hex"]["estimate"]


def test_healthz_jobs_list_and_metrics():
    with http_server(shards=2) as server:
        base = server.url
        code, body, _ = request("GET", base + "/healthz")
        assert (code, body) == (200, {"ok": True})

        _, sub, _ = request(
            "POST", base + "/v1/jobs", {"integrand": "3D-f4"}
        )
        wait_status(base, sub["job_id"], ("done",))

        code, listing, _ = request("GET", base + "/v1/jobs")
        assert code == 200
        assert [j["job_id"] for j in listing["jobs"]] == [sub["job_id"]]

        code, metrics, _ = request("GET", base + "/metrics")
        assert code == 200
        svc = metrics["service"]
        assert svc["submitted"] == 1
        assert svc["shards"] == 2
        assert len(svc["per_shard"]) == 2
        for shard in svc["per_shard"]:
            assert set(shard) == {"shard", "live", "followers", "utilization"}
        assert svc["queued"] == 0 and svc["inflight"] == 0
        assert svc["cache"]["entries"] == 1
        http = metrics["http"]
        assert http["requests"] >= 3
        assert http["rejected"] == 0
        assert http["jobs_tracked"] == 1
        assert metrics["max_queued"] == server.max_queued


def test_healthz_reports_a_dead_worker(monkeypatch):
    with http_server() as server:
        base = server.url

        def boom(only):
            raise RuntimeError("injected round failure")

        shard = server.service._shards[0]
        monkeypatch.setattr(shard.scheduler, "run_round", boom)
        _, sub, _ = request("POST", base + "/v1/jobs", {"integrand": "3D-f4"})
        wait_status(base, sub["job_id"], ("failed",))
        code, body, _ = request("GET", base + "/healthz")
        assert code == 503
        assert body["ok"] is False
        assert "injected round failure" in body["reason"]


def test_keepalive_requests_do_not_stall():
    """Headers and body go out in two sends: with Nagle's algorithm on,
    the client's delayed ACK stalls each kept-alive request ~40 ms."""
    import http.client
    import statistics

    with http_server() as server:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        seconds = []
        try:
            for _ in range(10):
                t0 = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                seconds.append(time.perf_counter() - t0)
                assert resp.status == 200
        finally:
            conn.close()
    assert statistics.median(seconds) < 0.020


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------
def test_unknown_job_and_route_404():
    with http_server() as server:
        base = server.url
        for method, path in (
            ("GET", "/v1/jobs/999"),
            ("GET", "/v1/jobs/999/result"),
            ("GET", "/v1/jobs/not-a-number"),
            ("GET", "/v2/jobs"),
            ("DELETE", "/v1/jobs/999"),
            ("POST", "/v1/other"),
        ):
            code, body, _ = request(method, base + path)
            assert code == 404, (method, path)
            assert "error" in body


def test_malformed_spec_rejected_400():
    with http_server() as server:
        base = server.url
        bad_bodies = [
            {"integrand": "3D-f4", "bogus": 1},        # unknown key
            {"rel_tol": 1e-3},                          # no integrand
            {"integrand": "no-such-integrand"},         # unknown spec
            {"integrand": "3D-f4", "rel_tol": 2.0},     # invalid tolerance
            {"integrand": "3D-f4", "priority": 0},      # invalid priority
        ]
        for body in bad_bodies:
            code, payload, _ = request("POST", base + "/v1/jobs", body)
            assert code == 400, body
            assert payload["error"]
        # not JSON at all
        req = urllib.request.Request(
            base + "/v1/jobs", method="POST", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=30)
        assert exc.value.code == 400
        # JSON but not an object
        code, payload, _ = request("POST", base + "/v1/jobs", ["3D-f4"])
        assert code == 400


# ---------------------------------------------------------------------------
# backpressure + cancellation (one slow rotation, bounded queue)
# ---------------------------------------------------------------------------
def test_admission_control_and_cancellation_over_http():
    with http_server(max_concurrent=1, max_queued=1) as server:
        base = server.url
        slow = {"integrand": "8D-f7", "rel_tol": 1e-7,
                "max_iterations": 35, "label": "slow"}
        _, running, _ = request("POST", base + "/v1/jobs", slow)
        wait_status(base, running["job_id"], ("running",))

        # different tolerance -> different fingerprint -> real queue entry
        queued = dict(slow, rel_tol=2e-7, label="queued")
        code, q, _ = request("POST", base + "/v1/jobs", queued)
        assert code == 202

        # the bounded queue is full: next POST is 429 + Retry-After
        third = dict(slow, rel_tol=3e-7, label="rejected")
        code, body, headers = request("POST", base + "/v1/jobs", third)
        assert code == 429
        assert "Retry-After" in headers
        assert "queue full" in body["error"]

        # a queued/running job's result is 409 + Retry-After
        code, body, headers = request(
            "GET", f"{base}/v1/jobs/{q['job_id']}/result"
        )
        assert code == 409
        assert "Retry-After" in headers

        # cancel the queued job over HTTP
        code, body, _ = request("DELETE", f"{base}/v1/jobs/{q['job_id']}")
        assert code == 202 and body["cancelled"]
        status = wait_status(base, q["job_id"], ("cancelled",))
        assert status["status"] == "cancelled"
        code, body, _ = request(
            "GET", f"{base}/v1/jobs/{q['job_id']}/result"
        )
        assert code == 410
        # cancelling a terminal job is a 409
        code, body, _ = request("DELETE", f"{base}/v1/jobs/{q['job_id']}")
        assert code == 409

        # cancel the running job too (worker abandons it mid-rotation)
        code, body, _ = request(
            "DELETE", f"{base}/v1/jobs/{running['job_id']}"
        )
        assert code == 202
        wait_status(base, running["job_id"], ("cancelled",), timeout=300)

        _, metrics, _ = request("GET", base + "/metrics")
        assert metrics["http"]["rejected"] == 1


# ---------------------------------------------------------------------------
# construction / lifecycle
# ---------------------------------------------------------------------------
def test_server_requires_positive_max_queued():
    from repro.errors import ConfigurationError

    with IntegrationService(max_concurrent=1) as svc:
        with pytest.raises(ConfigurationError):
            HttpIntegrationServer(svc, port=0, max_queued=0,
                                  owns_service=False)


def test_close_is_idempotent_and_post_after_close_fails():
    server = serve_http(port=0)
    url = server.url
    server.close()
    server.close()  # second close is a no-op
    with pytest.raises(urllib.error.URLError):
        request("POST", url + "/v1/jobs", {"integrand": "3D-f4"},
                timeout=2)


def test_server_without_service_ownership_leaves_service_running():
    with IntegrationService(max_concurrent=2) as svc:
        server = HttpIntegrationServer(svc, port=0, owns_service=False)
        _, sub, _ = request(
            "POST", server.url + "/v1/jobs", {"integrand": "3D-f4"}
        )
        wait_status(server.url, sub["job_id"], ("done",))
        server.close()
        # the service is still alive: direct submission works
        handle = svc.submit("3D-f4", rel_tol=1e-3)
        assert handle.result(timeout=300).converged
