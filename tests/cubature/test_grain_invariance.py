"""Same bits at any chunk grain, on every host backend.

``evaluate_regions`` cuts the live regions into chunks whose size is a
speed setting (``chunk_budget``).  Every reduction a region's estimate,
error and split axis depend on — the integrand's inner products included
— runs along that region's own points in a fixed order, so how many
regions share a chunk, and which backend runs it, must not change a bit.
The cases are the integrands with a contraction site: the catalogue's
``Σ c_i x_i`` sums (paper f1, f3, f6; Genz oscillatory, corner peak and
discontinuous) and ``gaussian_measure``'s ``z Lᵀ``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend
from repro.cubature.evaluation import evaluate_regions
from repro.cubature.rules import get_rule
from repro.integrands.catalog import named_integrand
from repro.integrands.transforms import gaussian_measure

#: regions per sweep: a few thousand, like a mid-run PAGANI iteration
REGIONS = 2001

#: regions per chunk; ``None`` is the reference grain (one chunk here)
GRAINS = (1, 3, 7, 64, None)

LANES = ("numpy", "threaded:2", "process:2")


def _correlated_gaussian():
    """A full (non-diagonal) Cholesky factor, so ``z Lᵀ`` mixes axes.
    Not expressible as a spec, so the process lane evaluates it
    in-process."""
    chol = np.array([[1.0, 0.0, 0.0], [0.4, 0.9, 0.0], [-0.3, 0.2, 0.7]])
    return gaussian_measure(
        named_integrand("3D-f4"), 3, mean=[0.1, -0.2, 0.3], chol=chol
    )


CASES = {
    "8D-f3": lambda: named_integrand("8D-f3"),
    "6D-f1": lambda: named_integrand("6D-f1"),
    "3D-f6": lambda: named_integrand("3D-f6"),
    "5D-genz-oscillatory": lambda: named_integrand("5D-genz-oscillatory"),
    "5D-genz-corner_peak": lambda: named_integrand("5D-genz-corner_peak"),
    "4D-genz-discontinuous": lambda: named_integrand("4D-genz-discontinuous"),
    "gaussian_measure": _correlated_gaussian,
}


def _regions(ndim: int):
    rng = np.random.default_rng(1115 + ndim)
    halfw = rng.uniform(0.005, 0.05, size=(REGIONS, ndim))
    centers = rng.uniform(halfw, 1.0 - halfw)
    return centers, halfw


@pytest.mark.filterwarnings("ignore:integrand .* cannot be shipped")
@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("case", list(CASES))
def test_evaluate_regions_bits_independent_of_grain_and_backend(case, lane):
    f = CASES[case]()
    rule = get_rule(f.ndim)
    centers, halfw = _regions(f.ndim)
    ref = evaluate_regions(rule, centers, halfw, f, error_model="cascade")
    bk = get_backend(lane)
    for grain in GRAINS:
        budget = {} if grain is None else {
            "chunk_budget": grain * rule.npoints * f.ndim
        }
        got = evaluate_regions(
            rule, centers, halfw, f, error_model="cascade", backend=bk,
            **budget,
        )
        where = f"{case} on {lane} at {grain or 'reference'} regions/chunk"
        np.testing.assert_array_equal(got.estimate, ref.estimate, err_msg=where)
        np.testing.assert_array_equal(got.error, ref.error, err_msg=where)
        np.testing.assert_array_equal(
            got.split_axis, ref.split_axis, err_msg=where
        )
