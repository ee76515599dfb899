"""Benchmark harness: figure-sweep helpers, the scenario runner, the
committed BENCH_*.json artifacts' claims, and problems()."""

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


def test_batch_bench_members_cover_all_families():
    names = {f.name for f in hz.batch_bench_members(smoke=False)}
    for family in ("oscillatory", "product_peak", "corner_peak", "gaussian",
                   "c0", "discontinuous"):
        assert any(family in n for n in names), family
    assert len(names) == 24




# ---------------------------------------------------------------------------
# Scenario benchmarks: one row schema, one problems()
# ---------------------------------------------------------------------------
def committed(name):
    return hz.load(hz.RESULTS_DIR / f"BENCH_{name}.json")


def check(payload, name):
    (found,) = [c for c in payload["checks"] if c["name"] == name]
    return found


# Routing stays out: its smoke bound is a wall-clock ratio on a
# sub-second trace, too noisy for a shared test host.
@pytest.mark.parametrize("name", [s for s in hz.SCENARIOS if s != "routing"])
def test_scenario_smoke_roundtrip(name, tmp_path, capsys):
    from repro.backends import available_backends

    payload = hz.run(name, smoke=True)
    assert payload["scenario"] == name
    assert payload["mode"] == "smoke"
    assert payload["rows"]
    for row in payload["rows"]:
        assert set(row) == set(hz.ROW_FIELDS)
        assert row["scenario"] == name
        assert row["wall_s"] > 0 and row["neval"] > 0
    for c in payload["checks"]:
        assert set(c) == set(hz.CHECK_FIELDS)
    if name in ("backends", "batch", "process"):
        lanes = {row["lane"] for row in payload["rows"]}
        assert lanes == set(available_backends())
    assert hz.problems(payload) == []

    path = hz.write(payload, tmp_path)
    assert path.name == f"BENCH_{name}.json"
    assert hz.load(path) == payload
    hz.print_payload(payload)
    assert f"=== {name} (smoke" in capsys.readouterr().out


@pytest.mark.parametrize("name", list(hz.SCENARIOS))
def test_committed_artifact_is_a_clean_non_smoke_run(name):
    data = committed(name)
    assert data["scenario"] == name
    assert data["mode"] != "smoke"
    assert data["generated_by"].endswith(f"harness.py {name}")
    assert hz.problems(data) == []


def test_committed_service_artifact_claims():
    """Duplicates served >=5x faster through the cache, none recomputed,
    bit-identical to cold integrate() in every pass, completed in
    priority order."""
    data = committed("service")
    assert check(data, "duplicate mix: cache speedup")["value"] >= 5.0
    served = check(data, "duplicate mix: duplicates served without recompute")
    assert served["value"] >= served["bound"] > 0
    assert check(data, "priority completion order")["value"] == [8, 4, 2, 1]
    assert all(row["agrees"] for row in data["rows"])


def test_committed_process_artifact_claims():
    """Plain integrate() on the process backend is bit-identical to
    numpy; the >=3x speedup is required only on a >=4-core host."""
    data = committed("process")
    (plain,) = [r for r in data["rows"] if r["workload"].startswith("plain")]
    assert plain["lane"] == "process" and plain["agrees"] is True
    assert {"numpy", "process"} <= {row["lane"] for row in data["rows"]}
    speedup = check(data, "process speedup vs numpy")
    assert speedup["bound"] == hz.PROCESS_BENCH_MIN_SPEEDUP
    assert speedup["enforced"] == (
        data["host"]["cpus"] >= hz.PROCESS_BENCH_MIN_CORES
    )
    if speedup["enforced"]:
        assert speedup["value"] >= speedup["bound"]


def test_committed_http_artifact_claims():
    """After a restart the durable store serves every duplicate, and
    every wave replays bit-identically to cold integrate()."""
    data = committed("http")
    assert check(data, "warm hit rate")["value"] >= 0.5
    assert check(data, "restart_warm hit rate")["value"] >= 0.9
    assert check(data, "restart_warm fresh runs")["value"] == 0
    entries = check(data, "restart_warm durable entries")
    assert entries["value"] == entries["bound"] > 0
    lanes = {row["lane"]: row for row in data["rows"]}
    assert set(lanes) == {"cold", "warm", "restart_warm"}
    assert all(row["agrees"] for row in lanes.values())


def test_committed_scenarios_artifact_claims():
    """Every transform family converges, and the escalated result keeps
    its PAGANI-first history without being relabelled."""
    data = committed("scenarios")
    families = {row["workload"].split("(")[0] for row in data["rows"]}
    assert {"semi_infinite", "infinite", "gaussian_measure"} <= families
    history = check(data, "escalation history")["value"]
    assert history[0] == "pagani"
    assert check(data, "final method")["value"] == history[-1] != "pagani"


def payload(scenario="backends", rate=0.1, converged=True, agrees=True,
            checks=()):
    """A one-row payload with a known numpy s/Meval."""
    neval = 2_000_000
    return {
        "scenario": scenario,
        "rows": [{
            "scenario": scenario, "workload": "3D f4 d3", "lane": "numpy",
            "wall_s": rate * neval / 1e6, "neval": neval, "s_per_meval": rate,
            "converged": converged, "agrees": agrees,
        }],
        "checks": list(checks),
    }


def test_problems_clean_within_rate_tolerance():
    assert hz.problems(payload(rate=0.25), baseline=payload(rate=0.1)) == []


def test_problems_dnf_is_fatal_even_when_fast():
    found = hz.problems(payload(rate=0.05, converged=False),
                        baseline=payload())
    assert found and "did not converge" in found[0]


@pytest.mark.parametrize("agrees, fatal", [(False, True), (None, False)])
def test_problems_disagreement_is_fatal(agrees, fatal):
    found = hz.problems(payload("batch", agrees=agrees))
    assert bool(found) == fatal
    if fatal:
        assert "disagrees with the reference" in found[0]


@pytest.mark.parametrize("scenario, fatal", [("backends", True),
                                             ("batch", False)])
def test_problems_rate_rule_applies_to_backends_only(scenario, fatal):
    found = hz.problems(payload(scenario, rate=0.5), baseline=payload())
    assert bool(found) == fatal
    if fatal:
        assert "5.00x the committed" in found[0]


def test_problems_backends_without_numpy_rows_fails():
    current = payload()
    current["rows"][0]["lane"] = "threaded"
    assert "no numpy rows" in hz.problems(current, baseline=payload())[0]


@pytest.mark.parametrize("enforced", [True, False])
def test_problems_failed_check_is_fatal_only_when_enforced(enforced):
    failed = {"name": "process speedup vs numpy", "value": 1.2, "bound": 3.0,
              "enforced": enforced, "ok": False}
    found = hz.problems(payload("process", checks=[failed]))
    assert bool(found) == enforced


@pytest.mark.parametrize("broken", [
    None,
    {"rows": [], "checks": []},
    {"scenario": "batch", "checks": []},
    {"scenario": "batch", "rows": [{"lane": "numpy"}], "checks": []},
    {"scenario": "batch", "rows": [], "checks": [{"name": "x"}]},
])
def test_problems_malformed_payload_exits_2(broken):
    with pytest.raises(SystemExit) as exc:
        hz.problems(broken)
    assert exc.value.code == 2


def test_unreadable_payload_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path in (bad, tmp_path / "missing.json"):
        with pytest.raises(SystemExit) as exc:
            hz.load(path)
        assert exc.value.code == 2


def test_main_writes_payloads_and_exits_1_on_a_problem(tmp_path, monkeypatch):
    dnf = payload("batch", converged=False)["rows"][0]
    monkeypatch.setitem(hz.SCENARIOS, "batch", lambda smoke: ([dnf], []))
    assert hz.main(["batch", "--smoke", "--out", str(tmp_path)]) == 1
    assert hz.load(tmp_path / "BENCH_batch.json")["rows"][0]["converged"] is False
