"""The reference backend: single-threaded vectorized NumPy.

This is the substrate the reproduction has always run on; every other
backend is validated against it (the conformance tests assert identical
estimates and errors).  All primitives are direct NumPy calls — the
virtual-device cost accounting stays in :mod:`repro.gpu.thrust`, which
charges kernels *around* these primitives.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

import numpy as np

from repro.backends.base import ArrayBackend


class NumpyBackend(ArrayBackend):
    """Default vectorized NumPy execution (one thread, host memory)."""

    name = "numpy"

    @property
    def xp(self) -> Any:
        return np

    def asarray(self, a: Any, dtype: Any = None) -> np.ndarray:
        return np.asarray(a, dtype=dtype)

    def to_numpy(self, a: Any) -> np.ndarray:
        return np.asarray(a)

    def map_integrand(self, fn: Callable[[Any], Any], points: Any) -> np.ndarray:
        vals = fn(points)
        vals = np.asarray(vals)
        if vals.dtype != np.float64:
            vals = vals.astype(np.float64)
        return vals

    def reduce_sum(self, values: Any) -> float:
        return float(np.sum(values))

    def dot(self, a: Any, b: Any) -> float:
        # Not ``np.dot``: BLAS splits a long dot product across its threads,
        # so the bits would depend on the BLAS thread count.  NumPy's
        # pairwise sum has one fixed order.
        return float(np.sum(np.multiply(a, b)))

    def minmax(self, values: Any) -> Tuple[float, float]:
        if values.size == 0:
            raise ValueError("minmax of empty array")
        return (float(np.min(values)), float(np.max(values)))

    def count_nonzero(self, flags: Any) -> int:
        return int(np.count_nonzero(flags))

    def exclusive_scan(self, flags: Any) -> np.ndarray:
        out = np.cumsum(flags, dtype=np.int64)
        if out.size == 0:
            return out
        out = np.concatenate(([0], out[:-1]))
        return out
