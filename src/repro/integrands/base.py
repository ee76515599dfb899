"""Integrand wrapper types.

Integrators in this package accept any batch callable ``(N, n) -> (N,)``;
:class:`Integrand` adds the metadata the benchmark harnesses and the device
cost model consume.  :class:`ScalarIntegrand` adapts plain scalar functions
(convenient, but orders of magnitude slower — the vectorized path is the
first-class citizen, per the HPC guides).  :class:`Lattice` is the
evaluate sweep's compact form of a tile of rule points; an integrand
written with :func:`fold_columns` accepts it as well as points, and
declares so through :attr:`Integrand.lattice`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple, Union

import numpy as np


class Lattice:
    """The points of one tile of Genz–Malik regions, stored per coordinate.

    Every rule offset is one of ``k = 7`` values (0, ±λ2, ±λ3 = ±λ4,
    ±λ5), so coordinate ``j`` of all ``p`` points of a region takes only
    ``k`` values.  ``values`` ``(n, k, w)`` holds them for ``w`` regions,
    ``values[j, v, r] = off[v] * h[r, j] + c[r, j]``, and ``index``
    ``(p, n)`` names each point's entry: point ``i = q * w + r`` has
    coordinate ``j`` equal to ``values[j, index[q, j], r]``.  ``len()``
    is the number of points the lattice stands for, ``p * w``, and
    integrands that accept a lattice return their values in that point
    order.  :func:`fold_columns` takes a lattice wherever it takes an
    ``(N, n)`` point array.

    ``scratch``, when given, lends the folds their temporaries: any
    object with the evaluate sweep's ``take(name, shape, dtype)``.
    Reusing them across tiles keeps each fold to one fresh array, its
    result.
    """

    __slots__ = ("values", "index", "scratch")

    def __init__(
        self, values: np.ndarray, index: np.ndarray, scratch: Any = None
    ) -> None:
        self.values = values
        self.index = index
        self.scratch = scratch

    def __len__(self) -> int:
        return self.index.shape[0] * self.values.shape[2]

    def _temp(self, name: str, shape: Tuple[int, ...], dtype: Any) -> np.ndarray:
        if self.scratch is None:
            return np.empty(shape, dtype=dtype)
        return self.scratch.take(f"{name}_{np.dtype(dtype).name}", shape, dtype)


Points = Union[np.ndarray, Lattice]


def fold_columns(
    ufunc: np.ufunc,
    x: Points,
    term: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    dtype: Any = np.float64,
    ncols: Optional[int] = None,
) -> np.ndarray:
    """Fold ``term(j, x[:, j], out)`` over the first ``ncols`` (default:
    all) columns of ``x`` with ``ufunc`` (``np.add`` for a sum,
    ``np.multiply`` for a product, ``np.logical_and`` for a ``bool``
    mask), in ascending ``j``.

    ``term`` writes column ``j``'s contribution into ``out`` (of
    ``dtype``) and returns it.  The fold order is the column order
    whatever ``x``'s memory layout, so a point's value has the same bits
    on C- and F-ordered points and however many points share the call.
    On the evaluate sweep's F-contiguous points every column is a
    contiguous row.

    On a :class:`Lattice`, ``term`` runs on the ``(k, w)`` lattice row of
    each coordinate instead of its ``p * w`` point values, and one row
    gather ``index[:, j]`` spreads the result to the points before the
    ``ufunc``.  Each point's term has the same input bits as on the
    points, and the fold keeps the column order, so the result is the
    same array.
    """
    if isinstance(x, Lattice):
        return _fold_lattice(ufunc, x, term, dtype, ncols)
    cols = x.T
    ncols = ncols or len(cols)
    acc = term(0, cols[0], np.empty(len(cols[0]), dtype=dtype))
    if ncols > 1:
        buf = np.empty_like(acc)
        for j in range(1, ncols):
            ufunc(acc, term(j, cols[j], buf), out=acc)
    return acc


def _fold_lattice(ufunc, lat: Lattice, term, dtype, ncols) -> np.ndarray:
    values, index = lat.values, lat.index
    ncols = ncols or len(values)
    row = lat._temp("fold_row", values.shape[1:], dtype)
    # mode="clip" (the index is in range): take's default "raise" mode
    # copies through a temporary when given ``out``
    acc = np.take(term(0, values[0], row), index[:, 0], axis=0, mode="clip")
    if ncols > 1:
        buf = lat._temp("fold_buf", acc.shape, dtype)
        for j in range(1, ncols):
            np.take(term(j, values[j], row), index[:, j], axis=0, out=buf,
                    mode="clip")
            ufunc(acc, buf, out=acc)
    return acc.reshape(-1)


def weighted_sum(x: Points, coeffs: np.ndarray) -> np.ndarray:
    """``Σ_j coeffs[j] · x[:, j]`` as a column fold (see :func:`fold_columns`)."""
    return fold_columns(
        np.add, x, lambda j, xj, out: np.multiply(xj, coeffs[j], out=out)
    )


@dataclass
class Integrand:
    """A batch integrand plus benchmark metadata.

    Attributes
    ----------
    fn:
        Batch callable mapping ``(N, ndim)`` float64 points to ``(N,)``
        values.  The points may be in either memory layout: the evaluate
        sweep passes an F-contiguous view (each coordinate column is
        contiguous), the baselines pass C-ordered rows.
    ndim:
        Dimensionality the callable expects.
    name:
        Identifier used in benchmark tables (e.g. ``"8D f7"``).
    reference:
        Analytic (or semi-analytic) value of the integral over the unit
        cube, when known; enables true-relative-error reporting.
    flops_per_eval:
        Approximate floating-point work of one function evaluation, read by
        the device cost model.
    sign_definite:
        Whether the integrand keeps one sign over the domain — the
        precondition of Lemma 3.1.  Harnesses use it to set PAGANI's
        ``relerr_filtering`` flag the way §3.5.1 prescribes.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    ndim: int
    name: str = ""
    reference: Optional[float] = None
    flops_per_eval: float = 50.0
    sign_definite: bool = True
    #: free-form notes (e.g. provenance of the reference value)
    notes: str = field(default="", repr=False)
    #: canonical catalogue spec (e.g. ``"8d-f7"``) when this integrand
    #: came from :func:`repro.integrands.catalog.named_integrand`.  The
    #: process backend ships this string to worker processes, which
    #: rebuild the (deterministic) integrand locally; integrands without
    #: a spec fall back to pickling the callable.
    spec: Optional[str] = field(default=None, repr=False)
    #: ``fn`` also accepts a :class:`Lattice`: its arithmetic is folds of
    #: per-coordinate terms (:func:`fold_columns`) and functions applied
    #: per point, as in every paper and Genz integrand.  The evaluate
    #: sweep then skips building the point buffer.  False for arbitrary
    #: callables and the transforms, which always receive points.
    lattice: bool = field(default=False, repr=False)

    def __call__(self, points: Points) -> np.ndarray:
        return self.fn(points)

    def with_name(self, name: str) -> "Integrand":
        return dataclasses.replace(self, name=name)


class ScalarIntegrand:
    """Adapter exposing a scalar ``f(x_vec) -> float`` as a batch callable.

    Evaluation loops in Python; use only for convenience or correctness
    checks, never in benchmarks.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], flops_per_eval: float = 50.0):
        self._fn = fn
        self.flops_per_eval = flops_per_eval

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        out = np.empty(points.shape[0])
        for i in range(points.shape[0]):
            out[i] = self._fn(points[i])
        return out
