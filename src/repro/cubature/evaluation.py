"""Vectorized batch region evaluation: the paper's ``EVALUATE`` kernel.

PAGANI's defining trait is that *all* live regions are evaluated in one
parallel sweep per iteration.  The sweep executes on a pluggable
:class:`~repro.backends.base.ArrayBackend` (NumPy by default): points for
a chunk of regions are materialised as one ``(chunk, p, n)`` tensor, the
integrand is applied to the flattened point list, and the five weighted
reductions plus the fourth-difference axis scan are computed with
fixed-order ``einsum`` contractions and fancy-indexed gathers.  Chunking
bounds peak memory (the guides' "be easy on memory" rule) and doubles as
the parallel decomposition: each chunk is an independent thunk the
backend may schedule on a thread pool or a device stream.  Every
reduction runs along one region's row in a fixed order, so neither the
chunk grain nor the backend nor the BLAS thread count changes a bit.

Returned per region:

* ``estimate``   — degree-7 integral estimate,
* ``error``      — raw error estimate (before two-level refinement),
* ``split_axis`` — axis with the largest fourth divided difference,
* companion-rule estimates when the ``four_difference`` error model is on.

Callers may pass a :class:`SweepScratch` to keep steady-state iterations
allocation-free: the chunk temporaries (the point tensor, volumes,
companion estimates, fourth-difference work arrays) are reused across
chunks and iterations instead of reallocated — shared across chunks only
on backends that run them serially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.backends import BackendLike, get_backend
from repro.cubature.rules import FOURTH_DIFF_RATIO, RULE_CACHE, GenzMalikRule

#: cap on floats materialised per chunk (regions * points * ndim)
_CHUNK_BUDGET = 16_000_000


@dataclass
class EvaluationResult:
    """Per-region outputs of one evaluate sweep."""

    estimate: np.ndarray  # (m,) degree-7 estimates
    error: np.ndarray  # (m,) raw error estimates
    split_axis: np.ndarray  # (m,) int axis of largest fourth difference
    neval: int  # total integrand evaluations performed


#: non-asymptotic detection threshold for the cascade error model: if a
#: higher-order difference is not at least this factor smaller than the next
#: lower-order one, the region is treated as non-smooth and gets the crude
#: (conservative) error.  DCUHRE uses comparable ratio tests on its null
#: rules.
CASCADE_RATIO_CRITICAL = 0.5


def _error_from_estimates(
    i7: np.ndarray,
    i5: np.ndarray,
    i3a: np.ndarray,
    i3b: np.ndarray,
    i1: np.ndarray,
    model: str,
) -> np.ndarray:
    """Combine embedded-rule estimates into a raw error estimate.

    ``cascade`` (default)
        The Berntsen–Espelid-style estimator Cuhre's rules were designed
        for, realised on our embedded family: form the difference cascade
        ``E1 = |I7−I5|``, ``E2 = |I5−I3a|``, ``E3 = |I3a−I1|``.  For a
        smooth integrand on a small region these decay geometrically
        (each difference is dominated by the lower rule's truncation
        error); when the decay is absent the region is non-asymptotic
        (kink, discontinuity, unresolved peak) and the *largest* difference
        is the honest error scale.  This protects PAGANI's per-region
        finished commitments from the classic |I7−I5| underestimation on
        non-smooth cells — a failure Cuhre tolerates (it never commits) but
        a filtering algorithm cannot.
    ``two_rule``
        The classical |I7 − I5| difference alone (ablation mode).
    ``four_difference``
        The paper's verbatim description: the largest difference between
        the degree-7 estimate and the four lower-degree companions.  Most
        conservative; kept as an ablation mode.
    """
    if model == "two_rule":
        return np.abs(i7 - i5)
    if model == "four_difference":
        return np.maximum.reduce(
            [np.abs(i7 - i5), np.abs(i7 - i3a), np.abs(i7 - i3b), np.abs(i7 - i1)]
        )
    if model == "cascade":
        e1 = np.abs(i7 - i5)
        e2 = np.abs(i5 - i3a)
        e3 = np.abs(i3a - i1)
        crude = np.maximum(np.maximum(e1, e2), e3)
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = np.where(e2 > 0.0, e1 / e2, np.where(e1 > 0.0, np.inf, 0.0))
            r2 = np.where(e3 > 0.0, e2 / e3, np.where(e2 > 0.0, np.inf, 0.0))
        asymptotic = np.maximum(r1, r2) < CASCADE_RATIO_CRITICAL
        return np.where(asymptotic, e1, crude)
    raise ValueError(f"unknown error model {model!r}")


class SweepScratch:
    """Reusable per-run scratch for the evaluate sweep's chunk temporaries.

    Owns the point tensor, volume vector, companion-estimate vectors and
    fourth-difference work arrays that :func:`compute_chunk` writes, so
    reusing one scratch across chunks makes steady-state iterations
    allocate O(1) new arrays.  Buffers are keyed by role and grow
    monotonically along axis 0 (the chunk length); a chunk borrows
    leading-row views, so a scratch serves exactly **one chunk at a
    time** — :func:`evaluate_regions` only shares it across chunks on
    backends that run them serially (``concurrent_chunks`` False).
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: Dict[str, np.ndarray] = {}

    def take(
        self, name: str, shape: Tuple[int, ...], dtype: Any = np.float64
    ) -> np.ndarray:
        """A ``shape``-sized view of the named buffer (grown if needed)."""
        buf = self._bufs.get(name)
        if (
            buf is None
            or buf.dtype != dtype
            or buf.shape[1:] != shape[1:]
            or buf.shape[0] < shape[0]
        ):
            buf = np.empty(shape, dtype=dtype)
            self._bufs[name] = buf
        return buf[: shape[0]]


def compute_chunk(
    bk,
    dr,
    integrand: Callable[[np.ndarray], np.ndarray],
    c,
    h,
    error_model: str,
    scratch: Optional[SweepScratch] = None,
) -> Tuple[Any, Any, Any]:
    """Evaluate one chunk of regions; return ``(estimate, error, axis)``.

    This is the *entire* per-chunk arithmetic of the evaluate sweep, shared
    verbatim by the in-process chunk thunks and the process-backend
    workers: both paths call this one function on the same slices with the
    same backend-resident rule tensors, which is what makes the
    process backend's remotely-computed results bit-identical to the
    reference — not merely close.

    ``c`` / ``h`` are the chunk's ``(mc, n)`` center/halfwidth slices on
    ``bk``'s array type; ``dr`` is the matching
    :class:`~repro.cubature.rules.DeviceRule`.

    Every temporary is written into a ``scratch`` buffer through ``out=``
    ufunc forms, and every reduction runs along one region's row in a
    fixed order, so a region's bits do not depend on which other regions
    share its chunk.  Callers without a reusable scratch get a fresh one;
    the returned arrays are views into it, valid until its next use.
    """
    if scratch is None:
        scratch = SweepScratch()
    mc, n = c.shape
    p = dr.points.shape[0]
    need_companions = error_model in ("four_difference", "cascade")

    # (mc, p, n) = ref * h + c  (broadcast over the point axis)
    pts = scratch.take("pts", (mc, p, n))
    np.multiply(dr.points[None, :, :], h[:, None, :], out=pts)
    np.add(pts, c[:, None, :], out=pts)
    vals = bk.map_integrand(integrand, pts.reshape(-1, n))
    vals = vals.reshape(mc, p)
    h2 = scratch.take("h2", (mc, n))
    np.multiply(2.0, h, out=h2)
    vol = scratch.take("vol", (mc,))
    np.prod(h2, axis=1, out=vol)

    def contract(w: np.ndarray, name: str):
        # vol * (vals @ w).  einsum, not BLAS: a threaded gemv splits the
        # rows across threads and the split changes which rows take the
        # kernel's remainder path, so ``vals @ w`` bits depend on the
        # BLAS thread count.
        out = scratch.take(name, (mc,))
        np.einsum("ij,j->i", vals, w, out=out)
        np.multiply(vol, out, out=out)
        return out

    i7 = contract(dr.w7, "i7")
    i5 = contract(dr.w5, "i5")
    if need_companions:
        i3a = contract(dr.w3a, "i3a")
        i3b = contract(dr.w3b, "i3b")
        i1 = contract(dr.w1, "i1")
        err = _error_from_estimates(i7, i5, i3a, i3b, i1, error_model)
    else:
        err = scratch.take("err", (mc,))
        np.subtract(i7, i5, out=err)
        np.abs(err, out=err)

    # Fourth divided differences per axis:
    #   D_i = |(f(+λ2 e_i) + f(−λ2 e_i) − 2 f(0))
    #          − (λ2²/λ3²) (f(+λ3 e_i) + f(−λ3 e_i) − 2 f(0))|
    f0 = vals[:, 0][:, None]  # (mc, 1)
    f02 = scratch.take("f02", (mc, 1))
    np.multiply(2.0, f0, out=f02)
    d2 = scratch.take("d2", (mc, n))
    d3 = scratch.take("d3", (mc, n))
    tmp = scratch.take("dtmp", (mc, n))
    np.take(vals, dr.idx2_plus, axis=1, out=d2)
    np.take(vals, dr.idx2_minus, axis=1, out=tmp)
    np.add(d2, tmp, out=d2)
    np.subtract(d2, f02, out=d2)
    np.take(vals, dr.idx3_plus, axis=1, out=d3)
    np.take(vals, dr.idx3_minus, axis=1, out=tmp)
    np.add(d3, tmp, out=d3)
    np.subtract(d3, f02, out=d3)
    np.multiply(FOURTH_DIFF_RATIO, d3, out=d3)
    np.subtract(d2, d3, out=d2)
    np.abs(d2, out=d2)  # d2 is now the fourth-difference magnitude
    axis = scratch.take("axis", (mc,), dtype=np.intp)
    np.argmax(d2, axis=1, out=axis)
    return i7, err, axis


class ChunkTask:
    """One evaluate-sweep chunk: a locally-callable thunk, plus — when the
    integrand can be shipped to another process — a picklable remote spec.

    The chunk-execution contract of :meth:`ArrayBackend.run_chunks` is
    unchanged: calling the task runs the chunk in-process and writes its
    disjoint output slices.  Process backends additionally look for
    ``remote_spec`` (a picklable payload describing the chunk, or ``None``
    when the integrand is not shippable); after a worker computes the
    chunk's ``(estimate, error, axis)`` arrays, the backend stitches them
    through :meth:`complete_remote` in deterministic chunk order.
    """

    __slots__ = ("_work", "_write", "remote_spec")

    def __init__(
        self,
        work: Callable[[], None],
        write: Optional[Callable[[Tuple[Any, Any, Any]], None]] = None,
        remote_spec: Optional[Dict[str, Any]] = None,
    ):
        self._work = work
        self._write = write
        self.remote_spec = remote_spec if write is not None else None

    def __call__(self) -> None:
        self._work()

    def complete_remote(
        self,
        result: Optional[Tuple[Any, Any, Any]] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Stitch a worker-computed chunk result into the output arrays.

        ``error`` re-raises in the caller (the parent process), so a
        remote integrand failure propagates exactly like a local thunk
        raising — including through the batch scheduler's per-member
        isolation guard, which wraps this method.
        """
        if error is not None:
            raise error
        self._write(result)


def shippable_integrand(integrand: Callable) -> Optional[Tuple[str, Any]]:
    """A picklable reference to ``integrand`` for worker processes.

    Preference order: a catalogue *spec* string (``("spec", "8d-f7")`` —
    rebuilt per worker via ``named_integrand``, bit-identical by
    construction because named specs denote one deterministic integrand),
    else the pickled callable itself (``("pickle", bytes)`` — covers
    module-level functions and picklable callable objects).  Returns
    ``None`` for closures/lambdas, which process backends then evaluate
    in-process as a serial fallback.
    """
    spec = getattr(integrand, "spec", None)
    if isinstance(spec, str):
        return ("spec", spec)
    import pickle

    try:
        return ("pickle", pickle.dumps(integrand))
    except Exception:
        return None


#: names already warned about (one line per integrand per process — a
#: 60-iteration run must not emit 60 copies of the same degradation note)
_WARNED_UNSHIPPABLE: set = set()


def _warn_unshippable(integrand: Callable) -> None:
    """One-time note that a process backend degraded to in-process serial.

    Closures and lambdas cannot be pickled to worker processes, so the
    sweep silently loses its parallelism — silent is the wrong default
    for a user who picked ``backend="process:8"`` expecting a speedup.
    Catalogue/transform specs (``named_integrand``,
    ``semi_infinite(named, ...)``) ship fine; this fires only for
    anonymous callables and out-of-grammar transforms.
    """
    import warnings

    name = getattr(integrand, "name", None) or getattr(
        integrand, "__qualname__", None
    ) or type(integrand).__name__
    if name in _WARNED_UNSHIPPABLE:
        return
    _WARNED_UNSHIPPABLE.add(name)
    warnings.warn(
        f"integrand {name!r} cannot be shipped to worker processes "
        "(no catalogue spec and not picklable); the process backend "
        "will evaluate it in-process, serially. Use a catalogue or "
        "transform spec (see repro.integrands.catalog) to restore "
        "chunk parallelism.",
        RuntimeWarning,
        stacklevel=3,
    )


def evaluate_regions(
    rule: GenzMalikRule,
    centers: np.ndarray,
    halfwidths: np.ndarray,
    integrand: Callable[[np.ndarray], np.ndarray],
    error_model: str = "two_rule",
    chunk_budget: int = _CHUNK_BUDGET,
    out_estimate: Optional[np.ndarray] = None,
    out_error: Optional[np.ndarray] = None,
    out_axis: Optional[np.ndarray] = None,
    backend: BackendLike = None,
    scratch: Optional[SweepScratch] = None,
    defer: bool = False,
) -> EvaluationResult | Tuple[EvaluationResult, List[Callable[[], None]]]:
    """Evaluate a batch of axis-aligned regions with the Genz–Malik rule set.

    Parameters
    ----------
    centers, halfwidths:
        ``(m, n)`` float64 arrays describing the regions in the *user's*
        coordinate system (no unit-cube normalisation required).
    integrand:
        Batch callable mapping ``(N, n)`` points to ``(N,)`` values.
    error_model:
        See :func:`_error_from_estimates`.
    chunk_budget:
        Max floats materialised per chunk; tunes peak memory, and sets the
        grain of the backend's chunk-level parallelism.  A speed setting
        only: every region gets the same bits at any grain.
    backend:
        Execution backend spec (``None`` = reference NumPy).  Each chunk's
        arithmetic is identical across host backends, so results do not
        depend on the backend or its schedule.
    scratch:
        Optional :class:`SweepScratch` reusing the chunk temporaries
        across chunks and calls (see :func:`compute_chunk`).  Silently
        disengaged on backends that run chunks concurrently, so callers
        may pass their scratch unconditionally.
    defer:
        When True, do **not** execute the sweep: return
        ``(result, tasks)`` where ``tasks`` is the list of chunk thunks
        and ``result``'s arrays are pre-allocated but unwritten.  The
        caller must run every thunk (in any order, on any schedule)
        before reading the result — this is the hook the batch scheduler
        uses to fuse many runs' sweeps into one backend submission.

    Notes
    -----
    The degree-7 weights are normalised per unit volume of the reference
    cube, so estimates are ``volume * (values @ w)`` with
    ``volume = prod(2 * halfwidth)``.
    """
    if error_model not in ("cascade", "two_rule", "four_difference"):
        raise ValueError(f"unknown error model {error_model!r}")
    bk = get_backend(backend)
    xp = bk.xp
    centers = bk.asarray(centers, dtype=np.float64)
    halfwidths = bk.asarray(halfwidths, dtype=np.float64)
    m, n = centers.shape
    if halfwidths.shape != (m, n):
        raise ValueError("centers/halfwidths shape mismatch")
    if n != rule.ndim:
        raise ValueError(f"rule is {rule.ndim}-D, regions are {n}-D")
    p = rule.npoints

    estimate = out_estimate if out_estimate is not None else xp.empty(m)
    error = out_error if out_error is not None else xp.empty(m)
    axis = out_axis if out_axis is not None else xp.empty(m, dtype=np.int64)

    chunk = max(1, int(chunk_budget // (p * n)))
    # Backend-resident rule tensors, built once per (backend, ndim) pair
    # and shared process-wide (see RuleCache): accelerator backends upload
    # the point set and weights a single time instead of per sweep.
    dr = RULE_CACHE.device_rule(rule, bk)

    # A scratch serves one chunk at a time.
    if bk.concurrent_chunks:
        scratch = None

    # Process backends execute chunks in worker processes when the
    # integrand can be shipped (catalogue spec or picklable callable);
    # workers rebuild the rule tensors from the ndim alone.
    wants_specs = getattr(bk, "wants_chunk_specs", False)
    integrand_ref = shippable_integrand(integrand) if wants_specs else None
    if wants_specs and integrand_ref is None:
        _warn_unshippable(integrand)

    def chunk_task(lo: int, hi: int) -> ChunkTask:
        def work() -> None:
            i7, err, ax = compute_chunk(
                bk, dr, integrand, centers[lo:hi], halfwidths[lo:hi],
                error_model, scratch=scratch,
            )
            estimate[lo:hi] = i7
            error[lo:hi] = err
            axis[lo:hi] = ax

        if integrand_ref is None:
            return ChunkTask(work)

        def write(res: Tuple[Any, Any, Any]) -> None:
            i7, err, ax = res
            estimate[lo:hi] = i7
            error[lo:hi] = err
            axis[lo:hi] = ax

        remote_spec = {
            "integrand": integrand_ref,
            "ndim": n,
            "error_model": error_model,
            "centers": centers[lo:hi],
            "halfwidths": halfwidths[lo:hi],
        }
        return ChunkTask(work, write=write, remote_spec=remote_spec)

    tasks = [chunk_task(lo, min(lo + chunk, m)) for lo in range(0, m, chunk)]
    result = EvaluationResult(
        estimate=estimate, error=error, split_axis=axis, neval=m * p
    )
    if defer:
        return result, tasks
    bk.run_chunks(tasks)
    return result
