"""Deeper property-based tests on the cubature layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubature.evaluation import evaluate_regions
from repro.cubature.rules import get_rule


@settings(max_examples=15)
@given(
    ndim=st.integers(2, 5),
    seed=st.integers(0, 10000),
)
def test_estimate_linear_in_integrand(ndim, seed):
    """Rule estimates are linear functionals: est(a f + b g) =
    a est(f) + b est(g), per region, exactly (up to fp roundoff)."""
    rng = np.random.default_rng(seed)
    rule = get_rule(ndim)
    centers = rng.uniform(0.2, 0.8, size=(4, ndim))
    halfw = rng.uniform(0.05, 0.2, size=(4, ndim))
    a, b = rng.normal(size=2)

    f = lambda x: np.sin(np.sum(x, axis=1))
    g = lambda x: np.exp(-np.sum(x * x, axis=1))
    fg = lambda x: a * f(x) + b * g(x)

    rf = evaluate_regions(rule, centers, halfw, f)
    rg = evaluate_regions(rule, centers, halfw, g)
    rfg = evaluate_regions(rule, centers, halfw, fg)
    np.testing.assert_allclose(
        rfg.estimate, a * rf.estimate + b * rg.estimate, rtol=1e-10, atol=1e-12
    )


@settings(max_examples=15)
@given(ndim=st.integers(2, 4), seed=st.integers(0, 10000))
def test_children_sum_approaches_parent(ndim, seed):
    """Splitting a region and summing child estimates must agree with the
    parent estimate within the combined error estimates (smooth f)."""
    rng = np.random.default_rng(seed)
    rule = get_rule(ndim)
    center = rng.uniform(0.3, 0.7, size=(1, ndim))
    halfw = np.full((1, ndim), 0.25)

    f = lambda x: np.exp(np.sum(x, axis=1) * 0.7)

    parent = evaluate_regions(rule, center, halfw, f)
    axis = int(parent.split_axis[0])
    ch = halfw.copy()
    ch[0, axis] *= 0.5
    cc = np.vstack([center, center])
    cc[0, axis] -= ch[0, axis]
    cc[1, axis] += ch[0, axis]
    hh = np.vstack([ch, ch])
    children = evaluate_regions(rule, cc, hh, f)
    gap = abs(parent.estimate[0] - children.estimate.sum())
    allowed = parent.error[0] + children.error.sum() + 1e-13 * abs(parent.estimate[0])
    assert gap <= max(allowed, 1e-14)


def _split_all(centers, halfw, axes):
    m, n = centers.shape
    ch = halfw.copy()
    rows = np.arange(m)
    ch[rows, axes] *= 0.5
    cc = np.empty((2 * m, n))
    hh = np.empty((2 * m, n))
    off = np.zeros((m, n))
    off[rows, axes] = ch[rows, axes]
    cc[0::2] = centers - off
    cc[1::2] = centers + off
    hh[0::2] = ch
    hh[1::2] = ch
    return cc, hh


@settings(max_examples=10)
@given(ndim=st.integers(2, 4), seed=st.integers(0, 10000))
def test_error_contracts_over_repeated_refinement(ndim, seed):
    """A single split may transiently raise the summed error estimate (the
    cascade model can flip children into the crude branch), but three
    levels of breadth-first refinement must contract it decisively — the
    convergence property every adaptive method rests on."""
    rng = np.random.default_rng(seed)
    rule = get_rule(ndim)
    centers = rng.uniform(0.35, 0.65, size=(1, ndim))
    halfw = np.full((1, ndim), 0.3)

    f = lambda x: 1.0 / (1.0 + np.sum(x, axis=1)) ** 2

    parent = evaluate_regions(rule, centers, halfw, f)
    total0 = float(parent.error.sum())
    res = parent
    for _ in range(3):
        centers, halfw = _split_all(centers, halfw, res.split_axis)
        res = evaluate_regions(rule, centers, halfw, f)
    assert float(res.error.sum()) < 0.5 * total0 + 1e-16


def test_reflection_symmetry_of_estimates():
    """Mirroring the integrand across the region centre leaves the estimate
    unchanged (fully-symmetric point set)."""
    rule = get_rule(3)
    center = np.array([[0.5, 0.5, 0.5]])
    halfw = np.array([[0.3, 0.3, 0.3]])

    f = lambda x: np.exp(x[:, 0] - 0.5) + (x[:, 1] - 0.5) ** 3
    g = lambda x: np.exp(-(x[:, 0] - 0.5)) - (x[:, 1] - 0.5) ** 3

    rf = evaluate_regions(rule, center, halfw, f)
    rg = evaluate_regions(rule, center, halfw, g)
    assert rf.estimate[0] == pytest.approx(rg.estimate[0], rel=1e-12)
    assert rf.error[0] == pytest.approx(rg.error[0], rel=1e-9, abs=1e-14)


def test_integrand_called_with_expected_point_layout():
    """The integrand receives an (N, ndim) float64 F-contiguous array: the
    transpose of the sweep's dimension-major point buffer, so every
    coordinate column is a contiguous row."""
    rule = get_rule(3)
    seen = {}

    def probe(x):
        seen["shape"] = x.shape
        seen["dtype"] = x.dtype
        seen["contig"] = x.flags["F_CONTIGUOUS"]
        return np.ones(x.shape[0])

    evaluate_regions(rule, np.full((2, 3), 0.5), np.full((2, 3), 0.1), probe)
    assert seen["shape"] == (2 * rule.npoints, 3)
    assert seen["dtype"] == np.float64
    assert seen["contig"]
