"""The :class:`ArrayBackend` protocol — the execution substrate contract.

PAGANI's hot path is a handful of array-level operations repeated every
iteration: materialise the cubature points for a batch of regions, apply
the integrand, reduce with the rule weights, and run a few Thrust-style
primitives (sum, dot, min/max, count, exclusive scan, stream compaction).
A backend supplies exactly those operations over one array type; the
algorithm layers (``repro.core``, ``repro.cubature``) never name a
concrete array library.

Implementers subclass :class:`ArrayBackend` and provide:

``xp``
    The array namespace (``numpy``, or a device array library).  All
    array *creation* in the hot path goes through ``xp`` (``xp.empty``,
    ``xp.zeros``, ``xp.arange``, ``xp.repeat``, …); elementwise math is
    written with ``numpy`` ufuncs, which dispatch to the owning library
    through ``__array_ufunc__`` / ``__array_function__``.
``map_integrand``
    Apply the user's batch integrand to an ``(N, ndim)`` point array and
    coerce the result to a float64 vector *of the backend's array type*.
``run_chunks``
    Execute a list of independent thunks, each writing a disjoint slice
    of pre-allocated output arrays.  This is the parallelism hook: the
    serial backends run the list in order, the threaded backend fans it
    out over a pool.  Because every thunk computes exactly the same
    numbers regardless of scheduling, results are bit-identical across
    backends that share an array library.
reductions / scan / compaction
    ``reduce_sum``, ``dot``, ``minmax``, ``count_nonzero`` return Python
    scalars (a device sync point on real accelerators);
    ``exclusive_scan`` and ``compress`` return backend arrays.

See ``repro/backends/__init__.py`` for the registry and the user-facing
selection API.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np


class BackendUnavailableError(ImportError):
    """The requested backend's array library (or device) is not usable.

    Subclasses :class:`ImportError` so ``pytest.importorskip``-style
    guards and plain ``except ImportError`` both catch it.
    """


class ArrayBackend(abc.ABC):
    """Abstract execution backend for the PAGANI hot path.

    Concrete backends are cheap, stateless handles (a thread pool at
    most); one instance can serve any number of concurrent integrations.
    """

    #: registry name, e.g. ``"numpy"``; set by subclasses
    name: str = "abstract"

    #: chunk budget (floats per chunk) the batch layer should use when
    #: fusing many runs' sweeps onto this backend; ``None`` keeps each
    #: run's reference budget (required for bit-identity with sequential
    #: execution — see ``repro.batch``).  Parallel backends that benefit
    #: from many small cache-sized chunks declare their tuned grain here.
    preferred_batch_chunk_budget: Optional[int] = None

    #: backends that execute chunks in *other processes* set this True;
    #: the evaluate sweep then attaches a picklable chunk spec to every
    #: task whose integrand can be shipped (see
    #: :func:`repro.cubature.evaluation.shippable_integrand`), alongside
    #: the ordinary in-process thunk.  Host/thread/device backends leave
    #: it False and pay nothing.
    wants_chunk_specs: bool = False

    #: backends that may execute the chunk thunks *concurrently* set this
    #: True; the evaluate sweep then skips the shared per-run scratch
    #: buffers, which assume chunks run one at a time.  Serial backends
    #: (the default ``run_chunks``) leave it False and get allocation-free
    #: steady-state sweeps.
    concurrent_chunks: bool = False

    # -- array namespace & movement ------------------------------------
    @property
    @abc.abstractmethod
    def xp(self) -> Any:
        """The array-creation namespace (``numpy`` for host backends)."""

    @abc.abstractmethod
    def asarray(self, a: Any, dtype: Any = None) -> Any:
        """Coerce ``a`` to this backend's array type (no copy if possible)."""

    @abc.abstractmethod
    def to_numpy(self, a: Any) -> np.ndarray:
        """Copy/viewify a backend array back to host NumPy."""

    # -- hot-path execution --------------------------------------------
    @abc.abstractmethod
    def map_integrand(self, fn: Callable[[Any], Any], points: Any) -> Any:
        """Apply batch integrand ``fn`` to ``(N, ndim)`` ``points``.

        Returns a float64 ``(N,)`` array of this backend's type.  The
        integrand contract is unchanged from the NumPy path: it must be
        a vectorised batch callable; backends never loop per point.
        """

    def run_chunks(self, tasks: Sequence[Callable[[], None]]) -> None:
        """Execute independent chunk thunks (default: serially, in order).

        Each thunk writes a disjoint, pre-allocated output slice, so any
        schedule is valid and all schedules produce identical bits.
        """
        for task in tasks:
            task()

    def synchronize(self) -> None:
        """Block until device work completes (no-op for host backends)."""

    # -- Thrust-style primitives ---------------------------------------
    @abc.abstractmethod
    def reduce_sum(self, values: Any) -> float:
        """Sum-reduce to a Python float (``thrust::reduce``)."""

    @abc.abstractmethod
    def dot(self, a: Any, b: Any) -> float:
        """Inner product to a Python float (``thrust::inner_product``)."""

    @abc.abstractmethod
    def minmax(self, values: Any) -> Tuple[float, float]:
        """Simultaneous min/max (``thrust::minmax_element``)."""

    @abc.abstractmethod
    def count_nonzero(self, flags: Any) -> int:
        """Count set flags (``thrust::count``)."""

    @abc.abstractmethod
    def exclusive_scan(self, flags: Any) -> Any:
        """Exclusive prefix sum (``thrust::exclusive_scan``)."""

    def compress(self, mask: Any, array: Any) -> Any:
        """Stream compaction: rows of ``array`` where ``mask`` is set.

        The scan-plus-gather idiom of the CUDA filter kernel; boolean
        fancy indexing is the host realisation.
        """
        return array[mask]

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


def resolve_workers(num_threads: Optional[int]) -> int:
    """Clamp a worker-count request to [1, 32], defaulting to the host CPUs."""
    import os

    if num_threads is None:
        num_threads = os.cpu_count() or 1
    return max(1, min(32, int(num_threads)))
