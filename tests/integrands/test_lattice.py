"""Every copy of a paper or Genz integrand keeps its lattice form.

The evaluate sweep takes the lattice path only for an ``Integrand`` whose
``lattice`` flag is set; a copy that dropped it would fall back to the
point path with the same bits, so no bit test would notice the lost
speed.  These tests pin each path that copies or rebuilds an integrand.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import process
from repro.integrands import transforms
from repro.integrands.base import Integrand, Lattice
from repro.integrands.catalog import named_integrand

SPECS = ["5D-f4", "8D-f3", "3D-f6", "4D-genz-discontinuous", "2D-genz-c0"]


@pytest.mark.parametrize("spec", SPECS)
def test_named_integrand_has_a_lattice_form(spec):
    f = named_integrand(spec)
    assert f.spec is not None
    assert f.lattice is True


def test_with_name_keeps_the_lattice_form():
    f = named_integrand("5D-f4")
    g = f.with_name("renamed")
    assert g.name == "renamed"
    assert g.lattice is True
    assert g.spec == f.spec


def test_transforms_keep_the_point_path():
    base = named_integrand("3D-f4")
    # a wrapped Integrand is used as is, flag and all
    assert transforms._as_integrand(base, 3) is base
    assert not transforms._as_integrand(base.fn, 3).lattice
    # the transforms map whole point arrays, and z Lᵀ mixes coordinates
    for t in (
        transforms.semi_infinite(base, 3, scale=2.0),
        transforms.infinite(base, 3, scale=2.0),
        transforms.gaussian_measure(base, 3, mean=[0.5] * 3),
    ):
        assert not t.lattice, t.name


@pytest.mark.parametrize("spec", SPECS)
def test_process_worker_rebuilds_the_lattice_form(spec, monkeypatch):
    """A catalogue spec shipped to a worker is rebuilt with its lattice
    form, and the worker's chunk evaluates on the lattice."""
    monkeypatch.setattr(process, "_worker_integrands", {})
    seen = []
    call = Integrand.__call__

    def spy(self, points):
        seen.append(type(points))
        return call(self, points)

    monkeypatch.setattr(Integrand, "__call__", spy)
    f = named_integrand(spec)
    rng = np.random.default_rng(5)
    h = rng.uniform(0.01, 0.05, size=(9, f.ndim))
    c = rng.uniform(h, 1.0 - h)
    est, err, axis = process._eval_chunk_in_worker(
        {
            "integrand": ("spec", f.spec),
            "ndim": f.ndim,
            "error_model": "cascade",
            "centers": c,
            "halfwidths": h,
        }
    )
    rebuilt = process._resolve_worker_integrand(("spec", f.spec))
    assert rebuilt.lattice is True
    assert seen == [Lattice]
    assert est.shape == err.shape == axis.shape == (9,)
