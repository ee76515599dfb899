"""SweepScratch: bit-identity of a reused scratch and the O(1)
steady-state allocation contract of the PAGANI loop.

``compute_chunk`` writes every chunk temporary into a scratch through
``out=`` ufunc forms; a scratch reused across chunks of different sizes
(re-sliced leading-row views) must give the same bits as a fresh one.
The allocation-regression test pins the point of reuse: once a run
reaches steady state, an iteration performs no large array allocations —
the store's SoA buffers, the run's scratch and the rule tensors are all
reused in place.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core.pagani import PaganiConfig, PaganiIntegrator
from repro.cubature.evaluation import SweepScratch, compute_chunk
from repro.cubature.rules import RULE_CACHE, get_rule
from repro.integrands.genz import GenzFamily, make_genz

MODELS = ["two_rule", "four_difference", "cascade"]


@pytest.mark.parametrize("ndim", [2, 3, 5])
@pytest.mark.parametrize("model", MODELS)
def test_scratch_path_is_bit_identical(ndim, model, rng):
    bk = get_backend("numpy")
    rule = get_rule(ndim)
    dr = RULE_CACHE.device_rule(rule, bk)
    f = make_genz(GenzFamily.PRODUCT_PEAK, ndim, seed=5)
    scratch = SweepScratch()
    for m in (41, 17, 41):  # shrink then regrow: buffers are re-sliced
        c = rng.random((m, ndim)) * 0.8 + 0.1
        h = rng.random((m, ndim)) * 0.1 + 0.01
        ref = compute_chunk(bk, dr, f, c, h, model)
        got = compute_chunk(bk, dr, f, c, h, model, scratch=scratch)
        for r, g, name in zip(ref, got, ("estimate", "error", "axis")):
            assert np.array_equal(r, g), f"{name} differs with scratch"


def test_scratch_buffers_are_reused_across_calls(rng):
    bk = get_backend("numpy")
    ndim = 3
    dr = RULE_CACHE.device_rule(get_rule(ndim), bk)
    f = make_genz(GenzFamily.GAUSSIAN, ndim, seed=2)
    scratch = SweepScratch()
    c = rng.random((20, ndim))
    h = np.full((20, ndim), 0.05)
    compute_chunk(bk, dr, f, c, h, "cascade", scratch=scratch)
    first = {name: id(buf) for name, buf in scratch._bufs.items()}
    assert "pts" in first and "i7" in first
    # Same-size and smaller chunks must not allocate fresh buffers.
    compute_chunk(bk, dr, f, c, h, "cascade", scratch=scratch)
    compute_chunk(bk, dr, f, c[:7], h[:7], "cascade", scratch=scratch)
    assert {name: id(buf) for name, buf in scratch._bufs.items()} == first


def test_steady_state_iterations_allocate_o1_new_arrays(monkeypatch):
    """Once the region population passes its peak, a PAGANI step on the
    numpy backend performs no region-scale ``np.empty`` allocations: chunk
    temporaries come from the run's scratch, region columns from the
    store's reserved SoA ping-pong buffers, and the sweep's outputs are
    written straight into the store's columns.

    The workload (4D product peak at rel_tol 1e-9) grows for three
    iterations, then relerr filtering shrinks the population below the
    reservation — every later iteration must run allocation-free.
    """
    f = make_genz(GenzFamily.PRODUCT_PEAK, 4, seed=9)
    cfg = PaganiConfig(rel_tol=1e-9, backend="numpy")
    run = PaganiIntegrator(cfg).start_run(f, 4)

    allocated = []
    real_empty = np.empty

    def counting_empty(shape, *args, **kwargs):
        allocated.append(shape)
        return real_empty(shape, *args, **kwargs)

    def region_scale(threshold):
        return [
            s for s in allocated
            if np.prod(np.atleast_1d(s).astype(float)) >= threshold
        ]

    monkeypatch.setattr(np, "empty", counting_empty)
    big_per_step = []
    steps = 0
    try:
        while not run.finished and steps < 30:
            n_regions = max(run.store.size, 1)
            allocated = []
            run.step()
            steps += 1
            big_per_step.append(len(region_scale(n_regions)))
    finally:
        monkeypatch.undo()
    assert run.finished and steps >= 5, (
        f"workload drifted ({steps} steps); pick one with a growth phase "
        "and a steady tail"
    )
    # Growth phase allocates (capacity doubling, scratch sizing) ...
    assert big_per_step[0] > 0
    # ... but the tail is allocation-free: at least the last two
    # iterations reuse every region-scale array in place.
    tail = big_per_step[-2:]
    assert tail == [0] * len(tail), (
        f"steady-state steps still allocate: per-step counts {big_per_step}"
    )
