"""Integrand wrapper types.

Integrators in this package accept any batch callable ``(N, n) -> (N,)``;
:class:`Integrand` adds the metadata the benchmark harnesses and the device
cost model consume.  :class:`ScalarIntegrand` adapts plain scalar functions
(convenient, but orders of magnitude slower — the vectorized path is the
first-class citizen, per the HPC guides).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


def fold_columns(
    ufunc: np.ufunc,
    x: np.ndarray,
    term: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Fold ``term(j, x[:, j], out)`` over the columns of ``x`` with
    ``ufunc`` (``np.add`` for a sum, ``np.multiply`` for a product), in
    ascending ``j``.

    ``term`` writes column ``j``'s contribution into ``out`` and returns
    it.  The fold order is the column order whatever ``x``'s memory
    layout, so a point's value has the same bits on C- and F-ordered
    points and however many points share the call.  On the evaluate
    sweep's F-contiguous points every column is a contiguous row.
    """
    cols = x.T
    acc = term(0, cols[0], np.empty_like(cols[0], dtype=np.float64))
    if len(cols) > 1:
        buf = np.empty_like(acc)
        for j in range(1, len(cols)):
            ufunc(acc, term(j, cols[j], buf), out=acc)
    return acc


def weighted_sum(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
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

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.fn(points)

    def with_name(self, name: str) -> "Integrand":
        return Integrand(
            fn=self.fn,
            ndim=self.ndim,
            name=name,
            reference=self.reference,
            flops_per_eval=self.flops_per_eval,
            sign_definite=self.sign_definite,
            notes=self.notes,
            spec=self.spec,
        )


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
