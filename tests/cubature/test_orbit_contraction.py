"""The orbit-sum rule contraction against the per-point weighted sum.

``compute_chunk`` forms each region's five rule estimates from its five
orbit sums and the ``(5, 5)`` orbit-weight matrix.  The reference here
is the definition of the rules: ``vol * Σ_q w[q] * f(x_q)`` over the
per-point weight vectors ``rule.w7 … rule.w1``, accumulated in ascending
point order.  The two orders of summation differ only by rounding, so
each estimate must agree within a few ULPs of ``vol * Σ_q |w[q] f(x_q)|``
(growing like the square root of the point count, as the rounding errors
of random terms do), and non-finite values must come out in the same
places either way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend
from repro.cubature.evaluation import (
    _TILE_FLOATS,
    SweepScratch,
    _error_from_estimates,
    compute_chunk,
)
from repro.cubature.rules import RULE_CACHE, RULE_NAMES, get_rule, orbit_ends

DIMS = range(2, 11)

#: allowed difference, in ULPs of vol * Σ_q |w[q] f(x_q)| per square
#: root of the point count (measured at most 1.1 at n = 2..10; the
#: worst case of either order is p - 1 half-ULPs)
ULPS_PER_SQRT_P = 2.0


class RecordedValues:
    """A point callable returning seeded random values, which it records.

    The values do not depend on the points, so they can be anything:
    mixed signs and magnitudes that make the two summation orders round
    differently, with infinities and NaNs put in by ``inject``.
    """

    def __init__(self, seed: int, inject=None):
        self.rng = np.random.default_rng(seed)
        self.inject = inject
        self.calls = []

    def __call__(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        vals = self.rng.standard_normal(n) * np.exp(
            self.rng.uniform(-3.0, 3.0, n)
        )
        if self.inject is not None:
            self.inject(vals, self.rng)
        self.calls.append(vals.copy())
        return vals

    def values(self, p: int) -> np.ndarray:
        """The chunk's ``(p, mc)`` values: tiles are column blocks."""
        return np.concatenate([v.reshape(p, -1) for v in self.calls], axis=1)


def per_point_estimates(rule, vals: np.ndarray, vol: np.ndarray):
    """``vol * Σ_q w[q] vals[q]`` for the five rules, ascending in q,
    plus ``vol * Σ_q |w[q] vals[q]|`` for the error bound."""
    w = np.stack([getattr(rule, name) for name in RULE_NAMES])[:, :, None]
    est = w[:, 0] * vals[0]
    mag = np.abs(est)
    for q in range(1, vals.shape[0]):
        term = w[:, q] * vals[q]
        est = est + term
        mag = mag + np.abs(term)
    return est * vol, mag * vol


def _chunk(ndim: int, mc: int, seed: int):
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.01, 0.2, size=(mc, ndim))
    c = rng.uniform(h, 1.0 - h)
    return c, h


def _run(ndim: int, mc: int, seed: int, inject=None):
    bk = get_backend("numpy")
    rule = get_rule(ndim)
    dr = RULE_CACHE.device_rule(rule, bk)
    c, h = _chunk(ndim, mc, seed)
    f = RecordedValues(seed, inject)
    scratch = SweepScratch()
    vol = np.prod(2.0 * h, axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf with injected values
        _, err, _ = compute_chunk(bk, dr, f, c, h, "cascade", scratch)
        est = scratch.take("est", (5, mc))  # the five rows, in place
        ref, mag = per_point_estimates(rule, f.values(rule.npoints), vol)
        ref_err = _error_from_estimates(*ref, "cascade")
    return f, est.copy(), err.copy(), ref, ref_err, mag


def _multi_tile_mc(ndim: int) -> int:
    """Regions for a chunk that takes three tiles, the last one partial."""
    step = _TILE_FLOATS // (ndim * get_rule(ndim).npoints)
    return 2 * step + 3


def _assert_same_nonfinite(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isposinf(got), np.isposinf(want))
    assert np.array_equal(np.isneginf(got), np.isneginf(want))


@pytest.mark.parametrize("ndim", DIMS)
@pytest.mark.parametrize("tiles", ["one-region", "multi-tile"])
def test_orbit_sums_match_the_per_point_sum(ndim, tiles):
    mc = 1 if tiles == "one-region" else _multi_tile_mc(ndim)
    f, est, _, ref, _, mag = _run(ndim, mc, seed=100 + ndim)
    assert len(f.calls) == (1 if mc == 1 else 3)
    assert np.all(np.isfinite(ref))
    ulps = ULPS_PER_SQRT_P * np.sqrt(get_rule(ndim).npoints)
    bound = ulps * np.finfo(np.float64).eps * mag
    assert np.all(np.abs(est - ref) <= bound), np.max(np.abs(est - ref) / mag)


def _one_region_cases(ndim: int):
    """Each bad value alone at the first point of each orbit, and +inf
    and -inf together in one orbit: a rule with a zero weight on that
    orbit must give NaN (0 * inf), the others an infinity or NaN."""
    ends = orbit_ends(ndim)
    starts = (0,) + ends[:-1]
    for lo, hi in zip(starts, ends):
        for bad in (np.inf, -np.inf, np.nan):
            yield {lo: bad}
        yield {lo: np.inf, hi - 1: -np.inf}
    yield {starts[1]: np.inf, starts[4]: np.inf}


@pytest.mark.parametrize("ndim", DIMS)
def test_nonfinite_values_in_one_region(ndim):
    for case in _one_region_cases(ndim):

        def inject(vals, rng, case=case):
            for q, bad in case.items():
                vals[q] = bad

        _, est, err, ref, ref_err, _ = _run(ndim, 1, 300 + ndim, inject)
        assert not np.all(np.isfinite(ref)), case
        _assert_same_nonfinite(est, ref)
        _assert_same_nonfinite(err, ref_err)


@pytest.mark.parametrize("ndim", DIMS)
def test_nonfinite_values_in_a_multi_tile_chunk(ndim):
    rate = 0.3 / get_rule(ndim).npoints

    def inject(vals, rng):
        for bad in (np.inf, -np.inf, np.nan):
            vals[rng.random(vals.size) < rate] = bad

    _, est, err, ref, ref_err, _ = _run(
        ndim, _multi_tile_mc(ndim), 400 + ndim, inject
    )
    finite = np.isfinite(ref).all(axis=0)
    assert 0 < finite.sum() < finite.size  # some regions of each kind
    _assert_same_nonfinite(est, ref)
    _assert_same_nonfinite(err, ref_err)
