"""Integrand bits do not depend on the points' memory layout.

The evaluate sweep hands an integrand the F-contiguous transpose of its
dimension-major point buffer, while the baselines (QMC, VEGAS, ...) hand
it C-ordered rows.  Every catalogue integrand folds over its coordinate
columns in a fixed order, so both layouts must give the same bits.
"""

from __future__ import annotations

import numpy as np
import pytest

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
