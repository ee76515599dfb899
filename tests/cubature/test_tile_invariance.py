"""Same bits at any point-tile size, and the tile's memory bound.

``compute_chunk`` builds a chunk's points and calls the integrand one
tile of at most ``_TILE_FLOATS`` point floats at a time, then contracts
the rules over the whole chunk's values.  A point's value does not
depend on how many points share an integrand call, so the tile size
must not change a bit of the estimate, error or split axis.  The tests
shrink the tile to 1, 2 and 3 regions (the 7-region chunk then ends in
a ragged tile) and compare against the one-tile run.

Paper and Genz integrands receive each tile as a coordinate ``Lattice``
instead of a point buffer; their chunks must give the bits of the same
integrand stripped of its lattice form, which takes the point path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.backends import get_backend
from repro.cubature import evaluation
from repro.cubature.evaluation import SweepScratch, compute_chunk
from repro.cubature.rules import (
    LAMBDA2,
    LAMBDA3,
    LAMBDA4,
    LAMBDA5,
    RULE_CACHE,
    get_rule,
)
from repro.integrands.base import Integrand, Lattice
from repro.integrands.catalog import named_integrand
from repro.integrands.genz import GenzFamily, make_genz

MODELS = ["two_rule", "four_difference", "cascade"]

SPECS = [
    "5D-f4",
    "8D-f3",
    "4D-genz-discontinuous",
    "semi_infinite(3D-f4, scale=2.0)",
]

#: regions in the chunk: 7 leaves a ragged last tile at 2 and 3 per tile
REGIONS = 7


def _chunk(ndim: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.005, 0.05, size=(m, ndim))
    c = rng.uniform(h, 1.0 - h)
    return c, h


class _Recorder:
    """Forwards to the integrand and records each call's points."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, x):
        self.calls.append((x.shape, x.flags.f_contiguous))
        return self.f(x)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("spec", SPECS)
def test_compute_chunk_bits_independent_of_tile(spec, model, monkeypatch):
    f = named_integrand(spec)
    n = f.ndim
    bk = get_backend("numpy")
    dr = RULE_CACHE.device_rule(get_rule(n), bk)
    p = dr.points.shape[0]
    c, h = _chunk(n, REGIONS, seed=20 + n)
    ref = compute_chunk(bk, dr, f, c, h, model)
    for step in (1, 2, 3):
        monkeypatch.setattr(evaluation, "_TILE_FLOATS", step * n * p)
        rec = _Recorder(f)
        got = compute_chunk(bk, dr, rec, c, h, model, scratch=SweepScratch())
        where = f"{spec} {model} at {step} regions/tile"
        for r, g, name in zip(ref, got, ("estimate", "error", "axis")):
            np.testing.assert_array_equal(g, r, err_msg=f"{name}: {where}")
        widths = [min(step, REGIONS - lo) for lo in range(0, REGIONS, step)]
        assert len(rec.calls) == math.ceil(REGIONS / step), where
        assert rec.calls == [((p * w, n), True) for w in widths], where


LATTICE_SPECS = [
    "5D-f4",
    "8D-f3",
    "8D-f7",
    "3D-f6",
    "4D-genz-discontinuous",
    "5D-genz-oscillatory",
    "6D-genz-product_peak",
]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("spec", LATTICE_SPECS)
def test_lattice_chunk_bits_match_point_chunk(spec, model, monkeypatch):
    """A paper or Genz integrand takes the lattice path, one lattice of ``p * w``
    points per tile, and gives the bits of its lattice-stripped copy."""
    f = named_integrand(spec)
    stripped = Integrand(fn=f.fn, ndim=f.ndim)
    n = f.ndim
    bk = get_backend("numpy")
    dr = RULE_CACHE.device_rule(get_rule(n), bk)
    p = dr.points.shape[0]
    c, h = _chunk(n, REGIONS, seed=40 + n)
    for step in (1, 2, 3, REGIONS):
        monkeypatch.setattr(evaluation, "_TILE_FLOATS", step * n * p)
        calls = []

        def spy(x):
            calls.append((type(x), len(x)))
            return f.fn(x)

        scratch = SweepScratch()
        got = compute_chunk(
            bk, dr, dataclasses.replace(f, fn=spy), c, h, model, scratch
        )
        ref = compute_chunk(bk, dr, stripped, c, h, model)
        where = f"{spec} {model} at {step} regions/tile"
        for r, g, name in zip(ref, got, ("estimate", "error", "axis")):
            np.testing.assert_array_equal(g, r, err_msg=f"{name}: {where}")
        widths = [min(step, REGIONS - lo) for lo in range(0, REGIONS, step)]
        assert calls == [(Lattice, p * w) for w in widths], where
        assert "pts" not in scratch._bufs, where


@pytest.mark.parametrize("ndim", range(2, 11))
def test_rule_offsets_index_the_points_bitwise(ndim):
    dr = RULE_CACHE.device_rule(get_rule(ndim), get_backend("numpy"))
    assert dr.offsets.shape == (7,)
    assert dr.index.shape == dr.points.shape
    assert dr.index.flags.f_contiguous
    assert np.array_equal(
        dr.offsets[dr.index].view(np.uint64), dr.points.view(np.uint64)
    )
    assert LAMBDA3 == LAMBDA4
    assert np.array_equal(
        dr.offsets, [-LAMBDA3, -LAMBDA5, -LAMBDA2, 0.0, LAMBDA2, LAMBDA5, LAMBDA3]
    )


def test_multi_tile_chunk_materialises_at_most_one_tile(monkeypatch):
    ndim = 3
    bk = get_backend("numpy")
    dr = RULE_CACHE.device_rule(get_rule(ndim), bk)
    p = dr.points.shape[0]
    step = evaluation._TILE_FLOATS // (ndim * p)
    m = 2 * step + step // 2  # two full tiles and a ragged third
    f = make_genz(GenzFamily.GAUSSIAN, ndim, seed=4)
    c, h = _chunk(ndim, m, seed=31)
    # the point path (a plain callable) holds one tile of points at a time
    scratch = SweepScratch()
    got = compute_chunk(bk, dr, f.fn, c, h, "cascade", scratch=scratch)
    assert scratch._bufs["pts"].size <= evaluation._TILE_FLOATS
    assert scratch._bufs["vals"].size == p * m
    # the lattice path holds 7 values per coordinate of a tile, no points
    scratch = SweepScratch()
    lat = compute_chunk(bk, dr, f, c, h, "cascade", scratch=scratch)
    assert scratch._bufs["lat"].size == ndim * 7 * step
    assert "pts" not in scratch._bufs
    monkeypatch.setattr(evaluation, "_TILE_FLOATS", m * ndim * p)
    ref = compute_chunk(bk, dr, f, c, h, "cascade")
    for r, g, q in zip(ref, got, lat):
        np.testing.assert_array_equal(g, r)
        np.testing.assert_array_equal(q, r)
