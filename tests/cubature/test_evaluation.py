"""Batch region evaluation: estimates, errors, axis selection, chunking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubature.evaluation import evaluate_regions
from repro.cubature.rules import get_rule


def _unit_regions(ndim, m=1):
    centers = np.full((m, ndim), 0.5)
    halfw = np.full((m, ndim), 0.5)
    return centers, halfw


def test_constant_integrand_exact():
    rule = get_rule(3)
    c, h = _unit_regions(3)
    res = evaluate_regions(rule, c, h, lambda x: np.full(x.shape[0], 2.5))
    assert res.estimate[0] == pytest.approx(2.5, rel=1e-12)
    assert res.error[0] == pytest.approx(0.0, abs=1e-12)
    assert res.neval == rule.npoints


def test_polynomial_on_shifted_scaled_region():
    """Exactness must survive affine region placement (not just unit cube)."""
    rule = get_rule(2)
    centers = np.array([[3.0, -1.0]])
    halfw = np.array([[0.25, 2.0]])

    def f(x):
        return x[:, 0] ** 2 * x[:, 1] ** 4

    res = evaluate_regions(rule, centers, halfw, f)

    def exact_1d(lo, hi, p):
        return (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)

    exact = exact_1d(2.75, 3.25, 2) * exact_1d(-3.0, 1.0, 4)
    assert res.estimate[0] == pytest.approx(exact, rel=1e-12)


@settings(max_examples=15)
@given(
    seed=st.integers(0, 9999),
    ndim=st.integers(2, 5),
    m=st.integers(1, 7),
)
def test_volume_scaling_property(seed, ndim, m):
    """∫ c dV over any region equals c · volume (per-region, batched)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(m, ndim))
    halfw = rng.uniform(0.1, 2.0, size=(m, ndim))
    res = evaluate_regions(rule := get_rule(ndim), centers, halfw,
                           lambda x: np.ones(x.shape[0]))
    vols = np.prod(2 * halfw, axis=1)
    np.testing.assert_allclose(res.estimate, vols, rtol=1e-12)
    np.testing.assert_allclose(res.error, 0.0, atol=1e-10 * float(vols.max()))


def test_batch_matches_individual_evaluation(rng):
    """Evaluating m regions at once == evaluating them one by one."""
    ndim = 4
    rule = get_rule(ndim)
    m = 9
    centers = rng.uniform(0.2, 0.8, size=(m, ndim))
    halfw = rng.uniform(0.05, 0.2, size=(m, ndim))

    def f(x):
        return np.exp(-np.sum(x**2, axis=1)) + np.sin(x[:, 0])

    batch = evaluate_regions(rule, centers, halfw, f)
    for i in range(m):
        single = evaluate_regions(rule, centers[i : i + 1], halfw[i : i + 1], f)
        assert single.estimate[0] == batch.estimate[i]
        assert single.error[0] == batch.error[i]
        assert single.split_axis[0] == batch.split_axis[i]


def test_chunking_does_not_change_results(rng):
    ndim = 3
    rule = get_rule(ndim)
    m = 64
    centers = rng.uniform(0.1, 0.9, size=(m, ndim))
    halfw = rng.uniform(0.01, 0.1, size=(m, ndim))

    def f(x):
        return np.cos(np.einsum("ij,j->i", x, np.arange(1.0, ndim + 1.0)))

    full = evaluate_regions(rule, centers, halfw, f)
    tiny = evaluate_regions(rule, centers, halfw, f, chunk_budget=rule.npoints * ndim * 3)
    np.testing.assert_array_equal(full.estimate, tiny.estimate)
    np.testing.assert_array_equal(full.error, tiny.error)
    np.testing.assert_array_equal(full.split_axis, tiny.split_axis)


def test_split_axis_finds_the_spiky_dimension():
    """A peak varying only along axis 2 must select axis 2."""
    ndim = 4
    rule = get_rule(ndim)
    c, h = _unit_regions(ndim)

    def f(x):
        return np.exp(-200.0 * (x[:, 2] - 0.5) ** 2)

    res = evaluate_regions(rule, c, h, f)
    assert res.split_axis[0] == 2


def test_split_axis_scales_with_region_shape():
    """With equal integrand curvature, the wider axis has the larger scaled
    fourth difference (offsets are proportional to the halfwidth)."""
    ndim = 2
    rule = get_rule(ndim)
    centers = np.array([[0.5, 0.5]])
    halfw = np.array([[0.5, 0.05]])  # axis 0 much wider

    def f(x):
        return np.exp(-5.0 * ((x[:, 0] - 0.5) ** 2 + (x[:, 1] - 0.5) ** 2))

    res = evaluate_regions(rule, centers, halfw, f)
    assert res.split_axis[0] == 0


def test_four_difference_mode_is_more_conservative(rng):
    ndim = 3
    rule = get_rule(ndim)
    centers = rng.uniform(0.3, 0.7, size=(5, ndim))
    halfw = np.full((5, ndim), 0.25)

    def f(x):
        return np.exp(np.sum(x, axis=1))

    two = evaluate_regions(rule, centers, halfw, f, error_model="two_rule")
    four = evaluate_regions(rule, centers, halfw, f, error_model="four_difference")
    np.testing.assert_array_equal(two.estimate, four.estimate)
    assert np.all(four.error >= two.error - 1e-300)


def test_unknown_error_model_rejected():
    rule = get_rule(2)
    c, h = _unit_regions(2)
    with pytest.raises(ValueError, match="error model"):
        evaluate_regions(rule, c, h, lambda x: np.ones(x.shape[0]),
                         error_model="bogus")


def test_shape_mismatch_rejected():
    rule = get_rule(3)
    with pytest.raises(ValueError):
        evaluate_regions(rule, np.zeros((2, 3)), np.ones((3, 3)),
                         lambda x: np.ones(x.shape[0]))
    with pytest.raises(ValueError):
        evaluate_regions(rule, np.zeros((2, 4)), np.ones((2, 4)),
                         lambda x: np.ones(x.shape[0]))


def test_output_buffers_are_used():
    rule = get_rule(2)
    c, h = _unit_regions(2, m=3)
    est = np.empty(3)
    err = np.empty(3)
    ax = np.empty(3, dtype=np.int64)
    res = evaluate_regions(rule, c, h, lambda x: np.ones(x.shape[0]),
                           out_estimate=est, out_error=err, out_axis=ax)
    assert res.estimate is est
    assert res.error is err
    assert res.split_axis is ax
