"""Unit tests for the benchmark harness utilities (no integration runs)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

import harness as hz  # noqa: E402
from harness import SweepRow  # noqa: E402


def _row(integrand="5D f4", method="pagani", digits=3, converged=True,
         true_rel=1e-4, sim_ms=1.0, status="converged_rel"):
    return SweepRow(
        integrand=integrand, method=method, digits=digits, converged=converged,
        status=status, estimate=1.0, errorest=1e-4, true_rel_error=true_rel,
        sim_ms=sim_ms, nregions=100, neval=1000,
    )


def test_digits_for_known_and_unknown():
    assert hz.digits_for("5D f4")
    assert hz.digits_for("unknown-integrand") == [3, 4, 5]


def test_select_filters_rows():
    rows = [_row(), _row(method="cuhre"), _row(integrand="8D f7")]
    out = hz.select(rows, "5D f4", "pagani")
    assert len(out) == 1
    assert out[0].method == "pagani"


def test_max_converged_digits_honours_truthfulness():
    rows = [
        _row(digits=3, converged=True, true_rel=1e-4),
        _row(digits=4, converged=True, true_rel=1e-5),
        # claims convergence at 5 digits but true error is 1e-2: not truthful
        _row(digits=5, converged=True, true_rel=1e-2),
        _row(digits=6, converged=False),
    ]
    assert hz.max_converged_digits(rows, "5D f4", "pagani") == 4


def test_write_csv_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setattr(hz, "RESULTS_DIR", tmp_path)
    rows = [_row(), _row(digits=4)]
    path = hz.write_csv(rows, "unit.csv")
    text = path.read_text()
    assert "integrand" in text.splitlines()[0]
    assert len(text.splitlines()) == 3


def test_sweep_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setattr(hz, "RESULTS_DIR", tmp_path)
    rows = [_row(), _row(method="cuhre", converged=False, status="max_evaluations")]
    hz._store_cached("unit", rows)
    loaded = hz._load_cached("unit")
    assert loaded == rows


def test_sweep_cache_miss_returns_none(tmp_path, monkeypatch):
    monkeypatch.setattr(hz, "RESULTS_DIR", tmp_path)
    assert hz._load_cached("nothing-here") is None


def test_cached_sweep_calls_compute_once(tmp_path, monkeypatch):
    monkeypatch.setattr(hz, "RESULTS_DIR", tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return [_row()]

    hz._SWEEP_CACHE.pop("unitk", None)
    a = hz._cached_sweep("unitk", compute)
    b = hz._cached_sweep("unitk", compute)
    assert a == b
    assert len(calls) == 1
    hz._SWEEP_CACHE.pop("unitk", None)
    # second process simulation: memory cache cleared, disk cache hits
    c = hz._cached_sweep("unitk", compute)
    assert c == a
    assert len(calls) == 1
    hz._SWEEP_CACHE.pop("unitk", None)


def test_print_table_formats(capsys):
    hz.print_table(
        "T", ["a", "bb"], [["1", "22"], ["333", "4"]], paper_note="note"
    )
    out = capsys.readouterr().out
    assert "=== T ===" in out
    assert "paper: note" in out
    assert "333" in out


def test_fmt_e():
    assert hz.fmt_e(1.5e-3) == "1.50e-03"
    assert hz.fmt_e(float("nan")) == "-"
    assert hz.fmt_e(float("inf")) == "-"


def test_integrand_catalogues_have_references():
    for cat in (hz.sweep_integrands(), hz.speedup_integrands(), hz.qmc_integrands()):
        for name, integrand in cat.items():
            assert integrand.reference is not None, name
            assert integrand.ndim == int(name.split("D")[0])


def test_backend_bench_smoke_roundtrip(tmp_path):
    data = hz.run_backend_bench(backends=["numpy", "threaded"], smoke=True)
    assert data["mode"] == "smoke"
    assert set(data["backends"]) == {"numpy", "threaded"}
    for spec, rows in data["backends"].items():
        assert rows, spec
        for r in rows:
            assert r["matches_numpy"], (spec, r)
            assert r["wall_seconds"] > 0
            assert r["converged"]

    path = hz.write_backend_bench(data, out=tmp_path / "BENCH_backends.json")
    import json

    loaded = json.loads(path.read_text())
    assert loaded["backends"]["threaded"][0]["estimate"] == pytest.approx(
        data["backends"]["threaded"][0]["estimate"]
    )


def test_backend_bench_skips_unavailable_backends(monkeypatch):
    from repro import backends

    def unavailable():
        raise backends.BackendUnavailableError("no device available")

    monkeypatch.setitem(backends._FACTORIES, "device", unavailable)
    data = hz.run_backend_bench(backends=["device"], smoke=True)
    # an unusable backend is skipped, not crashed on
    assert data["skipped_backends"] == ["device"]
    assert "device" not in data["backends"]


def test_batch_bench_smoke_roundtrip(tmp_path):
    data = hz.run_batch_bench(backends=["numpy", "threaded"], smoke=True)
    assert data["mode"] == "smoke"
    assert set(data["backends"]) == {"numpy", "threaded"}
    assert data["n_members"] == len(hz.batch_bench_members(smoke=True))
    for spec, d in data["backends"].items():
        assert d["sequential_seconds"] > 0 and d["batched_seconds"] > 0
        assert d["rounds"] >= 1
        assert len(d["members"]) == data["n_members"]
        for r in d["members"]:
            assert r["matches_sequential"], (spec, r)
            assert r["converged"]

    path = hz.write_batch_bench(data, out=tmp_path / "BENCH_batch.json")
    import json

    loaded = json.loads(path.read_text())
    assert loaded["backends"]["numpy"]["speedup"] == pytest.approx(
        data["backends"]["numpy"]["speedup"]
    )


def test_service_bench_smoke_roundtrip(tmp_path, capsys):
    data = hz.run_service_bench(smoke=True)
    assert data["mode"] == "smoke"
    assert data["n_jobs"] == len(data["unique_jobs"]) * data["duplicate_factor"]
    # bit-identity against cold integrate() runs must hold in every pass
    for key, bad in data["bit_identity"].items():
        assert bad == [], key
    # the warm replay is served entirely from the cache
    assert data["runs"]["warm_replay"]["all_cache_hits"]
    assert data["priority_order"]["in_priority_order"]
    assert data["priority_order"]["completion_order"] == [8, 4, 2, 1]
    # every duplicate was served without recomputation (hit or coalesced)
    n_dupes = data["n_jobs"] - len(data["unique_jobs"])
    assert data["runs"]["with_cache"]["served_without_recompute"] >= n_dupes

    path = hz.write_service_bench(data, out=tmp_path / "BENCH_service.json")
    import json

    loaded = json.loads(path.read_text())
    assert loaded["suite"] == "pagani-service-bench"
    hz.print_service_bench(data)
    out = capsys.readouterr().out
    assert "priority completion order" in out
    assert "bit-identity" in out


def test_committed_service_bench_artifact_claims():
    """The committed BENCH_service.json must actually evidence the
    service-layer claims: >=5x duplicate-mix speedup via cache hits,
    bit-identical replays, priority-order completion."""
    import json

    path = hz.RESULTS_DIR / hz.SERVICE_BENCH_FILE
    data = json.loads(path.read_text())
    assert data["suite"] == "pagani-service-bench"
    assert data["generated_by"].endswith("harness.py --service")
    assert data["cache_speedup"] >= 5.0
    for key, bad in data["bit_identity"].items():
        assert bad == [], key
    assert data["priority_order"]["in_priority_order"]
    assert data["runs"]["warm_replay"]["all_cache_hits"]


def test_process_bench_smoke_roundtrip(tmp_path, capsys):
    data = hz.run_process_bench(backends=["numpy", "threaded"], smoke=True)
    assert data["mode"] == "smoke"
    assert set(data["backends"]) == {"numpy", "threaded"}
    assert data["n_members"] == len(hz.process_bench_members(smoke=True))
    assert data["backends"]["numpy"]["speedup_vs_numpy"] == 1.0
    for spec, d in data["backends"].items():
        assert d["wall_seconds"] > 0
        assert d["all_match"], spec
        for r in d["members"]:
            assert r["converged"], (spec, r)
    # no process run requested -> the plain-integrate probe is skipped
    assert data["plain_integrate_bit_identical"] is None

    path = hz.write_process_bench(data, out=tmp_path / "BENCH_process.json")
    import json

    loaded = json.loads(path.read_text())
    assert loaded["suite"] == "pagani-process-bench"
    hz.print_process_bench(data)
    out = capsys.readouterr().out
    assert "vs numpy" in out


def test_process_bench_includes_process_backend_when_available():
    from repro.backends import BackendUnavailableError, new_backend

    try:
        new_backend("process:2").close()
    except BackendUnavailableError:
        pytest.skip("process backend unavailable on this host")
    data = hz.run_process_bench(backends=["numpy", "process"], smoke=True)
    assert data["backends"]["process"]["all_match"]
    assert data["plain_integrate_bit_identical"] is True


def test_committed_process_bench_artifact_claims():
    """The committed BENCH_process.json must evidence the process-backend
    claims: agreement with the numpy reference everywhere, plain-
    integrate bit-identity, and the >=3x speedup whenever the recording
    host had enough cores for the expectation to apply."""
    import json

    path = hz.RESULTS_DIR / hz.PROCESS_BENCH_FILE
    data = json.loads(path.read_text())
    assert data["suite"] == "pagani-process-bench"
    assert data["generated_by"].endswith("harness.py --process")
    assert data["plain_integrate_bit_identical"] is True
    assert {"numpy", "process"} <= set(data["backends"])
    for spec, d in data["backends"].items():
        assert d["all_match"], spec
        for r in d["members"]:
            assert r["converged"], (spec, r)
    speedup = data["backends"]["process"]["speedup_vs_numpy"]
    assert speedup is not None and speedup > 0
    exp = data["expectation"]
    assert exp["min_speedup_vs_numpy"] == hz.PROCESS_BENCH_MIN_SPEEDUP
    assert exp["enforced_on_this_host"] == (
        data["host"]["cpus"] >= exp["min_cores"]
    )
    if exp["enforced_on_this_host"]:
        assert speedup >= exp["min_speedup_vs_numpy"]


def test_service_bench_shards_recorded():
    data = hz.run_service_bench(smoke=True, shards=2)
    assert data["shards"] == 2
    for key, bad in data["bit_identity"].items():
        assert bad == [], key
    assert data["priority_order"]["in_priority_order"]


def test_batch_bench_members_cover_all_families():
    names = {f.name for f in hz.batch_bench_members(smoke=False)}
    for family in ("oscillatory", "product_peak", "corner_peak", "gaussian",
                   "c0", "discontinuous"):
        assert any(family in n for n in names), family
    assert len(names) == 24


# ---------------------------------------------------------------------------
# HTTP traffic-trace benchmark
# ---------------------------------------------------------------------------
def test_http_bench_smoke_roundtrip(tmp_path, capsys):
    data = hz.run_http_bench(smoke=True)
    assert data["mode"] == "smoke"
    assert data["suite"] == "pagani-http-bench"
    n_unique = len(data["unique_jobs"])
    assert data["n_jobs_per_wave"] == n_unique * data["duplicate_factor"]

    for name, wave in data["waves"].items():
        assert wave["all_converged"], name
        # every wave replays bit-identically against cold integrate()
        assert wave["replay_mismatches"] == [], name
    assert data["waves"]["warm"]["cache_hit_fraction"] >= 0.5
    restart = data["waves"]["restart_warm"]
    # the restart wave never recomputes: a fresh LRU means every hit
    # was served by the durable SQLite tier
    assert restart["cache_hit_fraction"] >= 0.9
    assert restart["fresh_runs"] == 0
    assert restart["durable_hits"] >= n_unique
    assert restart["durable_entries"] == n_unique
    assert hz.http_bench_problems(data) == []

    path = hz.write_http_bench(data, out=tmp_path / "BENCH_http.json")
    import json

    loaded = json.loads(path.read_text())
    assert loaded["suite"] == "pagani-http-bench"
    hz.print_http_bench(data)
    out = capsys.readouterr().out
    assert "restart_warm" in out
    assert "durable" in out


def test_committed_http_bench_artifact_claims():
    """The committed BENCH_http.json must evidence the durability
    contract: the restart-warm wave serves >=90% of duplicate requests
    from the durable store, bit-identical to cold integrate()."""
    import json

    path = hz.RESULTS_DIR / hz.HTTP_BENCH_FILE
    data = json.loads(path.read_text())
    assert data["suite"] == "pagani-http-bench"
    assert data["generated_by"].endswith("harness.py --http")
    for name, wave in data["waves"].items():
        assert wave["all_converged"], name
        assert wave["replay_mismatches"] == [], name
    assert data["waves"]["warm"]["cache_hit_fraction"] >= 0.5
    restart = data["waves"]["restart_warm"]
    assert restart["cache_hit_fraction"] >= 0.9
    assert restart["durable_hits"] >= len(data["unique_jobs"])
    # the gate's floors ride inside the payload itself
    assert data["expectation"]["min_restart_hit_rate"] >= 0.9
    assert hz.http_bench_problems(data) == []


def test_scenarios_bench_smoke_roundtrip(tmp_path, capsys):
    data = hz.run_scenarios_bench(smoke=True)
    assert data["mode"] == "smoke"
    assert data["suite"] == "pagani-scenarios-bench"
    for row in data["transforms"]:
        assert row["converged"], row["spec"]
        assert row["canonical_spec"]
    assert all(m["converged"] for m in data["sweep"]["members"])
    esc = data["escalation"]
    # the watchdogged PAGANI attempt must actually escalate, and the
    # result must keep the rung's own method — honest provenance
    assert esc["escalated"]
    assert esc["stages"][0]["method"] == "pagani"
    assert esc["final_method"] == esc["stages"][-1]["method"] != "pagani"
    assert esc["final_status"] == esc["stages"][-1]["status"]
    assert hz.scenarios_bench_problems(data) == []

    path = hz.write_scenarios_bench(data, out=tmp_path / "BENCH_scenarios.json")
    import json

    loaded = json.loads(path.read_text())
    assert loaded["suite"] == "pagani-scenarios-bench"
    hz.print_scenarios_bench(data)
    out = capsys.readouterr().out
    assert "escalation" in out
    assert "pagani->" in out


def test_committed_scenarios_bench_artifact_claims():
    """The committed BENCH_scenarios.json must evidence the opened
    workload space: every transform family and sweep member converged,
    and the escalation row kept honest PAGANI-first provenance."""
    import json

    path = hz.RESULTS_DIR / hz.SCENARIOS_BENCH_FILE
    data = json.loads(path.read_text())
    assert data["suite"] == "pagani-scenarios-bench"
    assert data["generated_by"].endswith("harness.py --scenarios")
    families = {row["spec"].split("(")[0] for row in data["transforms"]}
    assert families == {"semi_infinite", "infinite", "gaussian_measure"}
    assert len(data["sweep"]["members"]) >= 2
    assert data["escalation"]["escalated"]
    assert hz.scenarios_bench_problems(data) == []
