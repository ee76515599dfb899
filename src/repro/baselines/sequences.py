"""Low-discrepancy sequence generators for the QMC baseline.

Two engines are provided:

* :class:`HaltonSequence` — implemented from scratch: the radical-inverse
  (van der Corput) construction in the first ``ndim`` prime bases, with
  optional Cranley–Patterson rotation (a uniform random shift modulo 1)
  for randomisation.  Self-contained, any dimension.
* :class:`SobolSequence` — wraps SciPy's Sobol' engine (Joe–Kuo direction
  numbers) with Owen scrambling for randomisation.  SciPy is a declared
  runtime dependency; the Halton engine is the from-scratch fallback and
  the two are cross-validated in the test suite.

Randomisation is what turns a QMC rule into an integrator with an *error
estimate*: independent randomisations give independent estimates whose
spread is a statistically valid error measure — the property that makes the
method of Borowka et al. [27] comparable to PAGANI in the paper's Fig. 7.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def first_primes(k: int) -> np.ndarray:
    """The first ``k`` primes (Halton bases)."""
    primes = []
    candidate = 2
    while len(primes) < k:
        for p in primes:
            if p * p > candidate:
                break
            if candidate % p == 0:
                break
        else:
            primes.append(candidate)
            candidate += 1
            continue
        if candidate % p == 0:  # type: ignore[possibly-undefined]
            candidate += 1
            continue
        primes.append(candidate)
        candidate += 1
    return np.array(primes[:k], dtype=np.int64)


def radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Vectorised van der Corput radical inverse of ``indices`` in ``base``.

    Digit-reverses the index in the given base and places the digits after
    the radix point: the 1-D backbone of the Halton sequence.
    """
    idx = np.asarray(indices, dtype=np.int64).copy()
    out = np.zeros(idx.shape, dtype=np.float64)
    denom = np.ones(idx.shape, dtype=np.float64)
    while np.any(idx > 0):
        denom *= base
        out += (idx % base) / denom
        idx //= base
    return out


class HaltonSequence:
    """From-scratch Halton sequence with Cranley–Patterson rotation.

    Parameters
    ----------
    ndim:
        Point dimensionality.
    seed:
        When given, a uniform shift is drawn per dimension and added modulo
        one — the classic randomisation that preserves the low-discrepancy
        structure while making replicas independent.
    leap_zero:
        Skip the all-zeros first point (index starts at 1), avoiding the
        degenerate origin sample.
    """

    name = "halton"

    def __init__(self, ndim: int, seed: Optional[int] = None, leap_zero: bool = True):
        if ndim < 1:
            raise ValueError("ndim must be >= 1")
        self.ndim = ndim
        self.bases = first_primes(ndim)
        self._next = 1 if leap_zero else 0
        if seed is None:
            self.shift = None
        else:
            rng = np.random.default_rng(seed)
            self.shift = rng.random(ndim)

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` points, shape ``(n, ndim)`` in the unit cube."""
        idx = np.arange(self._next, self._next + n, dtype=np.int64)
        self._next += n
        pts = np.empty((n, self.ndim))
        for d, base in enumerate(self.bases):
            pts[:, d] = radical_inverse(idx, int(base))
        if self.shift is not None:
            pts += self.shift[None, :]
            pts -= np.floor(pts)
        return pts


class SobolSequence:
    """Owen-scrambled Sobol' points via SciPy's Joe–Kuo implementation."""

    name = "sobol"

    def __init__(self, ndim: int, seed: Optional[int] = None):
        if ndim < 1:
            raise ValueError("ndim must be >= 1")
        self.ndim = ndim
        from scipy.stats import qmc  # lazy: scipy.stats is slow to import

        self._engine = qmc.Sobol(d=ndim, scramble=seed is not None, seed=seed)

    def random(self, n: int) -> np.ndarray:
        return self._engine.random(n)


def make_sequence(kind: str, ndim: int, seed: Optional[int] = None):
    """Factory used by the QMC integrator configuration."""
    if kind == "halton":
        return HaltonSequence(ndim, seed=seed)
    if kind == "sobol":
        return SobolSequence(ndim, seed=seed)
    raise ValueError(f"unknown sequence kind {kind!r}")
