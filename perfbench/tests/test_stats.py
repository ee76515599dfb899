import math

import pytest

import stats


@pytest.mark.parametrize(
    "n, p, ok",
    [(1000, 99, True), (999, 99, False), (100, 90, True), (99, 90, False),
     (20, 50, True), (19, 50, False), (0, 50, False)],
)
def test_percentile_rule(n, p, ok):
    assert stats.supported(n, p) is ok


@pytest.mark.parametrize("n", [1, 7, 99, 100, 101, 999, 1000, 1234])
@pytest.mark.parametrize("p", [50, 90, 99])
def test_samples_beyond_counts_values_above_the_percentile(n, p):
    values = [float(i) for i in range(n)]
    cut = stats.percentile(values, p)
    assert sum(v > cut for v in values) == stats.samples_beyond(n, p)


def test_latency_summary_reports_only_supported_percentiles():
    small = stats.latency_summary([0.1] * 150)
    assert "latency_p90_s" in small and "latency_p99_s" not in small
    assert small["latency_n"] == 150
    big = stats.latency_summary([float(i) for i in range(1000)])
    assert big["latency_p99_s"] == 989.0
    assert stats.samples_beyond(1000, 99) == 10


def test_geomean_weighs_every_job_alike():
    assert stats.geomean([2.0, 8.0]) == pytest.approx(4.0)
    # doubling any one job moves the mean by the same factor
    assert stats.geomean([4.0, 8.0]) / stats.geomean([2.0, 8.0]) == pytest.approx(
        stats.geomean([2.0, 16.0]) / stats.geomean([2.0, 8.0]))
    assert stats.geomean([]) == 0.0


def test_quartile_spread():
    assert stats.quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_checker_accepts_a_real_result_and_rejects_a_perturbed_one():
    from repro import integrate
    from repro.integrands.catalog import named_integrand

    fn = named_integrand("3D-f4")
    res = integrate(fn, 3, rel_tol=1e-4)
    ref = stats.reference_of("3D-f4")
    assert stats.within_own_error(res.estimate, res.errorest, ref)
    off = 10.0 * stats.ERROR_SIGMA * res.errorest
    assert not stats.within_own_error(res.estimate + off, res.errorest, ref)


def test_replay_check_is_bit_exact():
    from repro import integrate
    from repro.integrands.catalog import named_integrand
    from repro.service.store import result_to_payload

    fn = named_integrand("2D-f4")
    a = result_to_payload(integrate(fn, 2, rel_tol=1e-3))
    b = result_to_payload(integrate(fn, 2, rel_tol=1e-3))
    assert stats.same_answer(a, b)
    nudged = dict(b)
    nudged["estimate"] = math.nextafter(float.fromhex(b["estimate"]), math.inf).hex()
    assert not stats.same_answer(nudged, a)
