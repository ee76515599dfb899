"""The six Genz (1984) test-integrand families with randomized parameters.

Genz's standard methodology draws affective parameters ``a`` (difficulty)
and shift parameters ``u`` at random, then rescales ``a`` so that the total
difficulty ``Σ a_i`` hits a per-family constant.  Every family has a closed
form on the unit cube, so randomized instances still provide exact
references — this is the broader robustness suite complementing the fixed
f1–f8 of the paper (which are fixed-parameter members of these families).

Family catalogue (all on [0,1]^d):

====================  ====================================================
``oscillatory``       cos(2π u₁ + Σ a_i x_i)
``product_peak``      Π (a_i^{-2} + (x_i − u_i)²)^{-1}
``corner_peak``       (1 + Σ a_i x_i)^{-(d+1)}
``gaussian``          exp(−Σ a_i² (x_i − u_i)²)
``c0``                exp(−Σ a_i |x_i − u_i|)
``discontinuous``     exp(Σ a_i x_i) if x₁ ≤ u₁ and x₂ ≤ u₂, else 0
====================  ====================================================

The ``Σ a_i x_i`` sums are fixed-order einsums rather than BLAS ``x @ a``,
for the reason given in :mod:`repro.integrands.paper`.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

import numpy as np
from scipy.special import erf as _erf

from repro.integrands.base import Integrand


class GenzFamily(str, enum.Enum):
    OSCILLATORY = "oscillatory"
    PRODUCT_PEAK = "product_peak"
    CORNER_PEAK = "corner_peak"
    GAUSSIAN = "gaussian"
    C0 = "c0"
    DISCONTINUOUS = "discontinuous"


#: Genz's standard per-family difficulty levels (Σ a_i after rescaling).
DEFAULT_DIFFICULTY = {
    GenzFamily.OSCILLATORY: 9.0,
    GenzFamily.PRODUCT_PEAK: 7.25,
    GenzFamily.CORNER_PEAK: 1.85,
    GenzFamily.GAUSSIAN: 7.03,
    GenzFamily.C0: 20.4,
    GenzFamily.DISCONTINUOUS: 4.3,
}


def _osc_reference(a: np.ndarray, phase: float) -> float:
    prod = complex(math.cos(phase), math.sin(phase))
    for ai in a:
        prod *= (np.exp(1j * ai) - 1.0) / (1j * ai)
    return float(prod.real)


def _corner_reference(a: np.ndarray) -> float:
    """Inclusion–exclusion for (1+Σ a_i x_i)^{-(d+1)} with float params.

    Terms are accumulated with ``math.fsum`` to limit cancellation; for the
    severely cancelling integer-parameter case the paper suite uses the
    exact rational path in :mod:`repro.integrands.paper` instead.
    """
    d = len(a)
    terms = []
    for mask in range(2**d):
        ssum = 0.0
        bits = mask
        sign = 1.0
        i = 0
        while bits:
            if bits & 1:
                ssum += a[i]
                sign = -sign
            bits >>= 1
            i += 1
        terms.append(sign / (1.0 + ssum))
    total = math.fsum(terms)
    denom = math.factorial(d) * float(np.prod(a))
    return total / denom


def make_genz(
    family: GenzFamily | str,
    ndim: int,
    seed: int = 0,
    difficulty: Optional[float] = None,
) -> Integrand:
    """Build a randomized Genz integrand with its exact reference value.

    Parameters
    ----------
    family:
        One of the six family identifiers.
    seed:
        Seeds the parameter draw; the same (family, ndim, seed, difficulty)
        tuple always yields the same instance.
    difficulty:
        Target ``Σ a_i`` (defaults to Genz's per-family constant).
    """
    family = GenzFamily(family)
    rng = np.random.default_rng(seed)
    diff = DEFAULT_DIFFICULTY[family] if difficulty is None else float(difficulty)
    a = rng.uniform(0.1, 1.0, size=ndim)
    a *= diff / a.sum()
    u = rng.uniform(0.0, 1.0, size=ndim)

    if family is GenzFamily.OSCILLATORY:
        phase = 2.0 * math.pi * u[0]

        def fn(x: np.ndarray) -> np.ndarray:
            return np.cos(phase + np.einsum("ij,j->i", x, a))

        ref = _osc_reference(a, phase)
        sign_definite = False
        flops = 2.0 * ndim + 20.0

    elif family is GenzFamily.PRODUCT_PEAK:

        def fn(x: np.ndarray) -> np.ndarray:
            return np.prod(1.0 / (1.0 / a[None, :] ** 2 + (x - u[None, :]) ** 2), axis=1)

        ref = float(
            np.prod([ai * (math.atan(ai * (1.0 - ui)) + math.atan(ai * ui)) for ai, ui in zip(a, u)])
        )
        sign_definite = True
        flops = 6.0 * ndim

    elif family is GenzFamily.CORNER_PEAK:
        power = -(ndim + 1.0)

        def fn(x: np.ndarray) -> np.ndarray:
            return np.power(1.0 + np.einsum("ij,j->i", x, a), power)

        ref = _corner_reference(a)
        sign_definite = True
        flops = 2.0 * ndim + 40.0

    elif family is GenzFamily.GAUSSIAN:

        def fn(x: np.ndarray) -> np.ndarray:
            return np.exp(-np.sum((a[None, :] * (x - u[None, :])) ** 2, axis=1))

        ref = float(
            np.prod(
                [
                    math.sqrt(math.pi) / (2.0 * ai) * (_erf(ai * (1.0 - ui)) + _erf(ai * ui))
                    for ai, ui in zip(a, u)
                ]
            )
        )
        sign_definite = True
        flops = 5.0 * ndim + 25.0

    elif family is GenzFamily.C0:

        def fn(x: np.ndarray) -> np.ndarray:
            return np.exp(-np.sum(a[None, :] * np.abs(x - u[None, :]), axis=1))

        ref = float(
            np.prod(
                [
                    (2.0 - math.exp(-ai * ui) - math.exp(-ai * (1.0 - ui))) / ai
                    for ai, ui in zip(a, u)
                ]
            )
        )
        sign_definite = True
        flops = 4.0 * ndim + 25.0

    elif family is GenzFamily.DISCONTINUOUS:

        def fn(x: np.ndarray) -> np.ndarray:
            inside = (x[:, 0] <= u[0]) & (x[:, 1] <= u[1]) if ndim >= 2 else x[:, 0] <= u[0]
            out = np.zeros(x.shape[0])
            if np.any(inside):
                out[inside] = np.exp(np.einsum("ij,j->i", x[inside], a))
            return out

        ref = 1.0
        for i, ai in enumerate(a):
            hi = u[i] if i < 2 else 1.0
            ref *= (math.exp(ai * hi) - 1.0) / ai
        sign_definite = True
        flops = 3.0 * ndim + 25.0

    else:  # pragma: no cover - exhaustive enum
        raise ValueError(family)

    return Integrand(
        fn=fn,
        ndim=ndim,
        name=f"{ndim}D genz-{family.value}(seed={seed})",
        reference=ref,
        flops_per_eval=flops,
        sign_definite=sign_definite,
    )
