"""The paper's test integrands f1–f8 with fixed parameters (§4.1).

All are defined on the unit cube.  Reference values are closed-form where
possible; the cancellation-prone corner-peak sum (f3) and the even box
moment (f7) use exact rational arithmetic; the odd box integral (f8) uses
the semi-analytic convolution pipeline of :mod:`repro.reference.boxint`.

The paper evaluates f1, f3, f4, f5, f7, f8 in eight dimensions, f4 also in
five, f6 in six and f3 also in three — the factories below take ``ndim``
where the paper varies it.

Every sum and product over the coordinates is a column-wise fold
(:func:`~repro.integrands.base.fold_columns`): ascending ``j``, one
reused ``out=`` temporary, no BLAS ``x @ c`` and no ``axis=1``
reduction.  A BLAS kernel or a row reduction picks its summation order
from the row count, the thread count or the memory layout, so one point's
value would depend on how many regions shared its chunk or on whether the
caller passed C- or F-ordered points.  The fold has one order, so a point
gets the same bits whatever the chunk grain, backend, BLAS threads or
layout; on the evaluate sweep's F-contiguous points each column is a
contiguous row.  Because the folds and the outer functions are all
they do, each ``fn`` also accepts the evaluate sweep's
:class:`~repro.integrands.base.Lattice` and says so with
``lattice=True``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import atan, erf, exp, pi, sqrt
from itertools import combinations
from typing import List

import numpy as np

from repro.integrands.base import Integrand, fold_columns, weighted_sum
from repro.reference.boxint import box_integral, box_moment_exact


# ---------------------------------------------------------------------------
# f1: oscillatory, cos(Σ i x_i)
# ---------------------------------------------------------------------------
def _osc_reference(coeffs: np.ndarray, phase: float = 0.0) -> float:
    """Re[e^{i·phase} Π (e^{i a_k} − 1)/(i a_k)] — the exact cosine integral."""
    prod = complex(np.cos(phase), np.sin(phase))
    for a in coeffs:
        prod *= (np.exp(1j * a) - 1.0) / (1j * a)
    return float(prod.real)


def f1_oscillatory(ndim: int = 8) -> Integrand:
    """f1(x) = cos(Σ_{i=1..n} i·x_i).  Oscillates in sign (Lemma 3.1 fails),
    the case where §3.5.1 says relative-error filtering must be disabled."""
    coeffs = np.arange(1.0, ndim + 1.0)

    def fn(x: np.ndarray) -> np.ndarray:
        s = weighted_sum(x, coeffs)
        return np.cos(s, out=s)

    return Integrand(
        fn=fn,
        lattice=True,
        ndim=ndim,
        name=f"{ndim}D f1",
        reference=_osc_reference(coeffs),
        flops_per_eval=2.0 * ndim + 20.0,
        sign_definite=False,
        notes="oscillatory; rel-err filtering must be off (paper §3.5.1)",
    )


# ---------------------------------------------------------------------------
# f2: product peak, Π (1/50² + (x_i − 1/2)²)^-1
# ---------------------------------------------------------------------------
def f2_product_peak(ndim: int = 6) -> Integrand:
    """f2(x) = Π_{i=1..n} (50^-2 + (x_i − 1/2)²)^-1."""
    a = 1.0 / 50.0
    factor_1d = (2.0 / a) * atan(0.5 / a)

    def term(j: int, xj: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.subtract(xj, 0.5, out=out)
        np.square(out, out=out)
        np.add(a * a, out, out=out)
        return np.divide(1.0, out, out=out)

    def fn(x: np.ndarray) -> np.ndarray:
        return fold_columns(np.multiply, x, term)

    return Integrand(
        fn=fn,
        lattice=True,
        ndim=ndim,
        name=f"{ndim}D f2",
        reference=factor_1d**ndim,
        flops_per_eval=5.0 * ndim,
        sign_definite=True,
    )


# ---------------------------------------------------------------------------
# f3: corner peak, (1 + Σ i x_i)^{-n-1}
# ---------------------------------------------------------------------------
@lru_cache(maxsize=None)
def _corner_reference_exact(ndim: int) -> float:
    """Exact (1/(n! Π a_i)) Σ_{S⊆[n]} (−1)^{|S|} / (1 + Σ_{i∈S} a_i).

    With a_i = i the alternating sum cancels catastrophically in floats for
    n = 8 (the result is ~1e-10 against O(1) terms), so it is evaluated in
    exact rational arithmetic.
    """
    coeffs = list(range(1, ndim + 1))
    total = Fraction(0)
    for r in range(ndim + 1):
        for subset in combinations(coeffs, r):
            total += Fraction((-1) ** r, 1 + sum(subset))
    denom = Fraction(1)
    for i in range(1, ndim + 1):
        denom *= Fraction(i)  # n!
    for a in coeffs:
        denom *= Fraction(a)  # Π a_i
    return float(total / denom)


def f3_corner_peak(ndim: int = 8) -> Integrand:
    """f3(x) = (1 + Σ_{i=1..n} i·x_i)^{-n-1}."""
    coeffs = np.arange(1.0, ndim + 1.0)
    power = -(ndim + 1.0)

    def fn(x: np.ndarray) -> np.ndarray:
        s = weighted_sum(x, coeffs)
        np.add(1.0, s, out=s)
        return np.power(s, power, out=s)

    return Integrand(
        fn=fn,
        lattice=True,
        ndim=ndim,
        name=f"{ndim}D f3",
        reference=_corner_reference_exact(ndim),
        flops_per_eval=2.0 * ndim + 40.0,
        sign_definite=True,
        notes="corner peak; reference via exact inclusion-exclusion",
    )


# ---------------------------------------------------------------------------
# f4: Gaussian, exp(−625 Σ (x_i − 1/2)²)
# ---------------------------------------------------------------------------
def f4_gaussian(ndim: int = 8) -> Integrand:
    """f4(x) = exp(−625 Σ (x_i − 1/2)²), an extremely narrow Gaussian."""
    factor_1d = sqrt(pi) / 25.0 * erf(12.5)

    def fn(x: np.ndarray) -> np.ndarray:
        s = fold_columns(
            np.add, x,
            lambda j, xj, out: np.square(np.subtract(xj, 0.5, out=out), out=out),
        )
        np.multiply(-625.0, s, out=s)
        return np.exp(s, out=s)

    return Integrand(
        fn=fn,
        lattice=True,
        ndim=ndim,
        name=f"{ndim}D f4",
        reference=factor_1d**ndim,
        flops_per_eval=4.0 * ndim + 25.0,
        sign_definite=True,
    )


# ---------------------------------------------------------------------------
# f5: C0 kink, exp(−10 Σ |x_i − 1/2|)
# ---------------------------------------------------------------------------
def f5_c0(ndim: int = 8) -> Integrand:
    """f5(x) = exp(−10 Σ |x_i − 1/2|), non-differentiable along midplanes."""
    factor_1d = (1.0 - exp(-5.0)) / 5.0

    def fn(x: np.ndarray) -> np.ndarray:
        s = fold_columns(
            np.add, x,
            lambda j, xj, out: np.abs(np.subtract(xj, 0.5, out=out), out=out),
        )
        np.multiply(-10.0, s, out=s)
        return np.exp(s, out=s)

    return Integrand(
        fn=fn,
        lattice=True,
        ndim=ndim,
        name=f"{ndim}D f5",
        reference=factor_1d**ndim,
        flops_per_eval=4.0 * ndim + 25.0,
        sign_definite=True,
    )


# ---------------------------------------------------------------------------
# f6: discontinuous, exp(Σ (i+4) x_i) on Π [0, (3+i)/10), else 0
# ---------------------------------------------------------------------------
def f6_discontinuous(ndim: int = 6) -> Integrand:
    """f6(x) = exp(Σ_{i=1..n} (i+4)·x_i) if every x_i < (3+i)/10, else 0."""
    idx = np.arange(1.0, ndim + 1.0)
    rates = idx + 4.0
    cuts = (3.0 + idx) / 10.0
    ref = 1.0
    for i in range(ndim):
        ref *= (exp(rates[i] * cuts[i]) - 1.0) / rates[i]

    def fn(x: np.ndarray) -> np.ndarray:
        inside = fold_columns(
            np.logical_and, x,
            lambda j, xj, out: np.less(xj, cuts[j], out=out), dtype=bool,
        )
        s = weighted_sum(x, rates)
        return np.exp(s, out=np.zeros_like(s), where=inside)

    return Integrand(
        fn=fn,
        lattice=True,
        ndim=ndim,
        name=f"{ndim}D f6",
        reference=ref,
        flops_per_eval=4.0 * ndim + 25.0,
        sign_definite=True,
        notes="discontinuous on an axis-aligned corner box",
    )


# ---------------------------------------------------------------------------
# f7/f8: box integrals (Σ x_i²)^{11} and (Σ x_i²)^{15/2}
# ---------------------------------------------------------------------------
def _sum_of_squares(x: np.ndarray) -> np.ndarray:
    return fold_columns(np.add, x, lambda j, xj, out: np.square(xj, out=out))


def f7_box11(ndim: int = 8) -> Integrand:
    """f7(x) = (Σ x_i²)^{11}; reference is the exact rational moment."""

    def fn(x: np.ndarray) -> np.ndarray:
        s = _sum_of_squares(x)
        return np.power(s, 11, out=s)

    return Integrand(
        fn=fn,
        lattice=True,
        ndim=ndim,
        name=f"{ndim}D f7",
        reference=float(box_moment_exact(ndim, 11)),
        flops_per_eval=2.0 * ndim + 10.0,
        sign_definite=True,
    )


@lru_cache(maxsize=None)
def _b15(ndim: int) -> float:
    return box_integral(ndim, 15, n_nodes=64)


def f8_box15(ndim: int = 8) -> Integrand:
    """f8(x) = (Σ x_i²)^{15/2}; reference via the convolution pipeline
    (validated against exact even moments to ~1e-12)."""
    if ndim not in (2, 4, 8):
        raise ValueError("f8 reference available for ndim in {2, 4, 8}")

    def fn(x: np.ndarray) -> np.ndarray:
        s = _sum_of_squares(x)
        return np.power(s, 7.5, out=s)

    return Integrand(
        fn=fn,
        lattice=True,
        ndim=ndim,
        name=f"{ndim}D f8",
        reference=_b15(ndim),
        flops_per_eval=2.0 * ndim + 30.0,
        sign_definite=True,
        notes="odd box integral; semi-analytic reference (see repro.reference)",
    )


# ---------------------------------------------------------------------------
def paper_suite() -> List[Integrand]:
    """The integrand/dimension combinations the paper's plots use (§4.1):
    f1, f3, f4, f5, f7, f8 in 8D, f4 in 5D, f6 in 6D, f3 in 3D."""
    return [
        f1_oscillatory(8),
        f3_corner_peak(8),
        f4_gaussian(8),
        f5_c0(8),
        f7_box11(8),
        f8_box15(8),
        f4_gaussian(5),
        f6_discontinuous(6),
        f3_corner_peak(3),
    ]
