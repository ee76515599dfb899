"""Property-based tests for the domain transforms.

Hypothesis drives random interior points, dimensions and scales through
algebraic identities the transforms must satisfy exactly (or to float
round-off):

* the Jacobian factor is strictly positive everywhere — a change of
  variables must never flip or annihilate the integrand;
* rescaling the domain commutes with rescaling the integrand's argument
  (``semi_infinite(f, a*s) == a^n * semi_infinite(f(a .), s)``);
* ``gaussian_measure`` with zero mean and identity Cholesky *is* the
  inverse-CDF map ``f(ndtri(u))``;
* the boundary clip keeps every transform finite on the closed cube.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import ndtri

hyp = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from repro.integrands.transforms import (
    gaussian_measure,
    infinite,
    semi_infinite,
)

_SETTINGS = dict(max_examples=50, deadline=None)


def _ones(x: np.ndarray) -> np.ndarray:
    return np.ones(x.shape[0])


def _interior_points(draw, ndim: int, n: int = 4) -> np.ndarray:
    elems = st.floats(min_value=0.01, max_value=0.99)
    rows = draw(
        st.lists(
            st.lists(elems, min_size=ndim, max_size=ndim),
            min_size=n, max_size=n,
        )
    )
    return np.asarray(rows, dtype=np.float64)


@st.composite
def _points_and_scale(draw):
    ndim = draw(st.integers(min_value=1, max_value=4))
    pts = _interior_points(draw, ndim)
    scale = draw(st.floats(min_value=0.1, max_value=10.0))
    return ndim, pts, scale


@given(_points_and_scale())
@settings(**_SETTINGS)
def test_jacobian_strictly_positive(case):
    """With f == 1 the transform value IS the Jacobian: must be > 0."""
    ndim, pts, scale = case
    for build in (semi_infinite, infinite):
        jac = build(_ones, ndim, scale=scale).fn(pts)
        assert np.all(jac > 0.0)
        assert np.all(np.isfinite(jac))


@given(_points_and_scale(), st.floats(min_value=0.25, max_value=4.0))
@settings(**_SETTINGS)
# Both pinned cases put a value in the subnormal range (5.5e-315 and
# 2.2e-312, the integrand's exp() already underflowing), where the two
# spellings differ by one or two subnormal spacings (1e-323): a relative
# difference of 1.8e-9 and 4.4e-12.
@example(case=(1, np.full((4, 1), 0.968645), 9.5), a=2.5)
@example(
    case=(3, np.array([[0.5] * 3] * 3 + [[0.625, 0.625, 0.96029455]]), 9.75),
    a=2.75,
)
def test_semi_infinite_scale_invariance(case, a):
    """semi_infinite(f, a*s).fn == a^n * semi_infinite(f(a.), s).fn.

    Substituting x -> a*x in the map is the same as scaling the domain
    map by a; the two spellings must agree to float round-off.  Round-off
    is relative only down to the smallest normal float: below it the
    spacing is a fixed 5e-324, so the bound is ``rtol * max(|v|, tiny)``.
    """
    ndim, pts, scale = case

    def f(x):
        return np.exp(-np.sum(x, axis=1))

    def f_scaled(x):
        return f(a * x)

    lhs = semi_infinite(f, ndim, scale=a * scale).fn(pts)
    rhs = a**ndim * semi_infinite(f_scaled, ndim, scale=scale).fn(pts)
    rtol = 1e-12
    tiny = np.finfo(np.float64).tiny
    np.testing.assert_allclose(lhs, rhs, rtol=rtol, atol=rtol * tiny)


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(**_SETTINGS)
def test_gaussian_measure_identity_is_inverse_cdf(ndim, data):
    """mean=0, chol=I: the transform is exactly u -> f(ndtri(u))."""
    pts = _interior_points(data.draw, ndim)

    def f(x):
        return np.sum(x * x, axis=1) + 1.0

    g = gaussian_measure(f, ndim)
    expected = f(ndtri(pts))
    np.testing.assert_array_equal(g.fn(pts), expected)


@pytest.mark.parametrize("build", [semi_infinite, infinite])
def test_boundary_clip_keeps_values_finite(build):
    """t = 0 and t = 1 would hit the maps' poles; the clip must keep
    every evaluation finite (the integrand decaying fast enough)."""
    ndim = 3

    def f(x):
        return np.exp(-np.sum(np.abs(x), axis=1))

    g = build(f, ndim, scale=1.0)
    corners = np.array(
        [[0.0] * ndim, [1.0] * ndim, [0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]
    )
    vals = g.fn(corners)
    assert np.all(np.isfinite(vals))


def test_gaussian_measure_boundary_clip_finite():
    ndim = 2

    def f(x):
        return np.ones(x.shape[0])

    g = gaussian_measure(f, ndim)
    corners = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    vals = g.fn(corners)
    assert np.all(np.isfinite(vals))
