"""Wall-clock microbenchmarks of the computational kernels.

Unlike the figure reproductions (which report deterministic *simulated*
time), these time the actual Python/NumPy implementations with
pytest-benchmark — the vectorised evaluate sweep is the reproduction's real
"GPU kernel", and its host throughput is what bounds every experiment's
wall time.  Also contrasts the batched sweep against per-region evaluation
(the vectorisation win the HPC guides prescribe), times one
``compute_chunk`` at the threaded lane's small grain and at the reference
grain (where the integrand is called in several tiles), contrasts the
lattice path of the paper and Genz integrands with the point path at the
threaded, process and reference grains, and times the classification and
split kernels.
"""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.process import ProcessNumpyBackend
from repro.backends.threaded import ThreadedNumpyBackend
from repro.core.classify import rel_err_classify, threshold_classify
from repro.core.regions import RegionStore
from repro.cubature.evaluation import (
    _CHUNK_BUDGET,
    SweepScratch,
    compute_chunk,
    evaluate_regions,
)
from repro.cubature.rules import RULE_CACHE, get_rule
from repro.integrands.base import Integrand
from repro.integrands.catalog import named_integrand
from repro.integrands.genz import GenzFamily
from repro.integrands.paper import f4_gaussian, f7_box11

BATCH = 4096


def _regions(ndim, m, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(m, ndim))
    halfw = rng.uniform(0.01, 0.05, size=(m, ndim))
    return centers, halfw


@pytest.mark.parametrize("ndim", [5, 8])
def test_evaluate_batch_throughput(benchmark, ndim):
    """Regions/second of the batched evaluate sweep."""
    rule = get_rule(ndim)
    integrand = f4_gaussian(ndim)
    centers, halfw = _regions(ndim, BATCH)
    result = benchmark(
        lambda: evaluate_regions(rule, centers, halfw, integrand)
    )
    assert result.estimate.shape == (BATCH,)


def test_evaluate_single_region_overhead(benchmark):
    """Per-region cost when batching is NOT used (the anti-pattern)."""
    ndim = 5
    rule = get_rule(ndim)
    integrand = f4_gaussian(ndim)
    centers, halfw = _regions(ndim, 1)
    benchmark(lambda: evaluate_regions(rule, centers, halfw, integrand))


@pytest.mark.parametrize(
    "ndim, grain",
    [
        (8, ThreadedNumpyBackend.preferred_batch_chunk_budget),
        (5, _CHUNK_BUDGET),
        (8, _CHUNK_BUDGET),
    ],
    ids=["8D-threaded", "5D-reference", "8D-reference"],
)
def test_compute_chunk(benchmark, ndim, grain):
    """One evaluate chunk at a lane's grain, with a warm reused scratch.

    At the threaded grain an 8D chunk holds about 40 regions, so the
    per-point rule loop's ufunc overhead shows; at the reference grain
    the points are built and evaluated in several tiles.
    """
    bk = get_backend("numpy")
    rule = get_rule(ndim)
    dr = RULE_CACHE.device_rule(rule, bk)
    integrand = f4_gaussian(ndim)
    m = grain // (rule.npoints * ndim)
    centers, halfw = _regions(ndim, m)
    scratch = SweepScratch()
    est, _, _ = benchmark(
        lambda: compute_chunk(
            bk, dr, integrand, centers, halfw, "cascade", scratch
        )
    )
    assert est.shape == (m,)


GRAINS = {
    "threaded": ThreadedNumpyBackend.preferred_batch_chunk_budget,
    "process": ProcessNumpyBackend.preferred_batch_chunk_budget,
    "reference": _CHUNK_BUDGET,
}
LATTICE_SPECS = ["5D-f4", "8D-f3", "8D-f7"] + [
    f"5D-genz-{family.value}" for family in GenzFamily
]


@pytest.mark.parametrize("path", ["lattice", "points"])
@pytest.mark.parametrize("grain", list(GRAINS))
@pytest.mark.parametrize("spec", LATTICE_SPECS)
def test_compute_chunk_lattice_vs_points(benchmark, spec, grain, path):
    """One evaluate chunk on the lattice path and on the point path.

    ``lattice`` is the paper or Genz integrand, evaluated on each tile's
    coordinate lattice; ``points`` is the same integrand stripped of its
    lattice flag, evaluated on the tile's point buffer (the path every
    user callable takes).  A process-grain chunk (1 Mi point floats) is
    one tile; at the reference grain the chunk runs about 16 tiles.
    """
    bk = get_backend("numpy")
    integrand = named_integrand(spec)
    if path == "points":
        integrand = Integrand(fn=integrand.fn, ndim=integrand.ndim)
    ndim = integrand.ndim
    rule = get_rule(ndim)
    dr = RULE_CACHE.device_rule(rule, bk)
    m = GRAINS[grain] // (rule.npoints * ndim)
    centers, halfw = _regions(ndim, m)
    scratch = SweepScratch()
    est, _, _ = benchmark(
        lambda: compute_chunk(
            bk, dr, integrand, centers, halfw, "cascade", scratch
        )
    )
    assert est.shape == (m,)


def test_integrand_evaluation_throughput(benchmark):
    """Raw integrand throughput (points/second) for the 8D box integrand."""
    integrand = f7_box11(8)
    pts = np.random.default_rng(1).random((200_000, 8))
    benchmark(lambda: integrand(pts))


def test_classify_kernel(benchmark):
    rng = np.random.default_rng(2)
    v = rng.normal(size=500_000)
    e = np.abs(rng.normal(size=500_000)) * 1e-6
    benchmark(lambda: rel_err_classify(v, e, 1e-6))


def test_threshold_search_kernel(benchmark):
    rng = np.random.default_rng(3)
    e = rng.lognormal(mean=-10, sigma=3, size=500_000)
    active = np.ones(e.size, dtype=bool)
    e_tot = float(e.sum())
    benchmark(
        lambda: threshold_classify(active, e, 1.0, e_tot, 1e-4)
    )


def test_split_kernel(benchmark):
    def setup():
        store = RegionStore.uniform_split(np.array([[0.0, 1.0]] * 5), 8)
        store.estimate = np.zeros(store.size)
        store.split_axis = np.random.default_rng(4).integers(0, 5, store.size)
        return (store,), {}

    benchmark.pedantic(lambda s: s.split(), setup=setup, rounds=20)


def test_filter_kernel(benchmark):
    def setup():
        store = RegionStore.uniform_split(np.array([[0.0, 1.0]] * 5), 8)
        store.estimate = np.zeros(store.size)
        store.error = np.zeros(store.size)
        keep = np.random.default_rng(5).random(store.size) < 0.5
        return (store, keep), {}

    benchmark.pedantic(lambda s, k: s.filter(k), setup=setup, rounds=20)
