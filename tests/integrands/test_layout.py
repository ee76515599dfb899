"""Integrand bits do not depend on the points' layout or form.

The evaluate sweep hands a callable the F-contiguous transpose of its
dimension-major point buffer, while the baselines (QMC, VEGAS, ...) hand
it C-ordered rows.  Every catalogue integrand folds over its coordinate
columns in a fixed order, so both layouts must give the same bits.  The
sweep hands catalogue integrands the same points as a coordinate
``Lattice``, which must give the same bits too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend
from repro.cubature.rules import RULE_CACHE, get_rule
from repro.integrands.base import Lattice
from repro.integrands.catalog import named_integrand
from repro.integrands.genz import GenzFamily

PAPER = [f"f{i}" for i in range(1, 9)]
GENZ = [f"genz-{family.value}" for family in GenzFamily]


def _specs():
    for ndim in (3, 8):
        for key in PAPER + GENZ:
            # the f8 reference exists only for ndim in {2, 4, 8}
            yield f"{4 if key == 'f8' and ndim == 3 else ndim}D-{key}"
    yield "semi_infinite(3D-f4, scale=2.0)"
    yield "infinite(3D-genz-gaussian, scale=1.5)"
    yield "gaussian_measure(3D-f4, mean=0.5, sigma=0.8)"


@pytest.mark.parametrize("spec", list(_specs()))
def test_values_identical_on_c_and_f_ordered_points(spec):
    f = named_integrand(spec)
    rng = np.random.default_rng(7)
    pts_c = rng.random((4097, f.ndim))
    pts_f = np.asfortranarray(pts_c)
    assert pts_c.flags["C_CONTIGUOUS"] and pts_f.flags["F_CONTIGUOUS"]
    vals_c = f(pts_c)
    vals_f = f(pts_f)
    assert vals_c.shape == (4097,)
    assert np.array_equal(vals_c, vals_f), (
        f"{spec}: values depend on the points' memory layout"
    )


# -- the lattice form -------------------------------------------------------
# The evaluate sweep hands paper and Genz integrands a tile's points as
# a ``Lattice``: each coordinate's 7 distinct values per region plus the
# rule's point index.  Its values must be the point path's, bit for bit.


def _tile(ndim, c, h):
    """The lattice and the sweep's ``(p * w, n)`` points of regions ``c, h``."""
    dr = RULE_CACHE.device_rule(get_rule(ndim), get_backend("numpy"))
    p = dr.points.shape[0]
    hT, cT = h.T, c.T
    lattice = Lattice(
        dr.offsets[None, :, None] * hT[:, None, :] + cT[:, None, :], dr.index
    )
    pts = dr.points.T[:, :, None] * hT[:, None, :] + cT[:, None, :]
    return lattice, pts.reshape(ndim, p * len(c)).T


def _edge_regions(f, ndim):
    """Regions whose lattice values land exactly on the integrand's kinks
    and cuts: a centre on the value (offset 0), and centres
    ``value - off * h`` for the other offsets."""
    dr = RULE_CACHE.device_rule(get_rule(ndim), get_backend("numpy"))
    hits = [0.5, 0.0, 1.0, -0.05]  # f5/c0 kink, cube bounds, outside
    hits += list((4.0 + np.arange(ndim)) / 10.0)  # the f6 cuts
    hits += [0.25, 0.75]
    if "discontinuous" in f.name:
        hits += list(_genz_shift(ndim))  # the Genz discontinuous cuts
    c, h = [], []
    for hw in (2.0**-4, 0.03):
        for value in hits:
            for off in dr.offsets:
                h.append(np.full(ndim, hw))
                c.append(np.full(ndim, value - off * hw))
    return np.array(c), np.array(h), hits


def _genz_shift(ndim):
    """``u`` of ``make_genz(DISCONTINUOUS, ndim)`` (same draw order)."""
    rng = np.random.default_rng(0)
    rng.uniform(0.1, 1.0, size=ndim)
    return rng.uniform(0.0, 1.0, size=ndim)


@pytest.mark.parametrize("spec", list(_specs()))
def test_lattice_values_identical_to_point_values(spec):
    f = named_integrand(spec)
    n = f.ndim
    if "(" in spec:
        # the transforms map whole point arrays: the point path only
        assert not f.lattice
        return
    assert f.lattice
    rng = np.random.default_rng(11)
    h = rng.uniform(0.001, 0.2, size=(37, n))
    c = rng.uniform(h, 1.0 - h)
    ce, he, hits = _edge_regions(f, n)
    for cc, hh, what in ((c, h, "random"), (ce, he, "edge")):
        lattice, pts = _tile(n, cc, hh)
        p = get_rule(n).npoints
        assert len(lattice) == p * len(cc) == len(pts)
        want = f.fn(pts)
        got = f(lattice)
        assert got.shape == want.shape == (len(pts),)
        np.testing.assert_array_equal(
            got, want, err_msg=f"{spec}: lattice != points ({what} regions)"
        )
    # the edge regions land on every value at offset 0 (each coordinate,
    # both halfwidths), and on many values at other offsets too
    counts = [np.count_nonzero(lattice.values == value) for value in hits]
    assert min(counts) >= 2 * n
    assert sum(counts) >= 6 * n * len(hits)
