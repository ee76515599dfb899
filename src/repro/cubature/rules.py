"""The Genz–Malik degree-7 rule with embedded companion rules.

Genz & Malik (1980, 1983) construct an imbedded family of fully-symmetric
rules on the cube.  Cuhre — and therefore PAGANI, which reuses Cuhre's
rules — evaluates the integrand once on the degree-7 point set and forms:

* the degree-7 integral estimate (the reported value),
* lower-degree estimates on subsets of the same points, whose differences
  from the degree-7 estimate drive the error estimate (the paper: "four
  additional rules provide four different estimates, with the largest
  difference of those four yielding an error value"),
* per-axis fourth divided differences that select the split axis.

Generators (squared): λ2² = 9/70, λ3² = λ4² = 9/10, λ5² = 9/19.  Weights are
solved from moment-exactness at construction; the published closed forms are
verified against them in ``tests/cubature/test_rules.py``.

Point count: ``1 + 4n + 2n(n−1) + 2^n``.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Tuple

import numpy as np

from repro.cubature.orbits import make_orbits, solve_weights

#: Genz–Malik generator values.
LAMBDA2 = np.sqrt(9.0 / 70.0)
LAMBDA3 = np.sqrt(9.0 / 10.0)
LAMBDA4 = np.sqrt(9.0 / 10.0)
LAMBDA5 = np.sqrt(9.0 / 19.0)

#: ratio used by the fourth divided difference (Genz–Malik):
#: D_i = |Δ2_i − (λ2²/λ3²) Δ3_i| with Δk_i the central second difference
#: along axis i at offset λk.
FOURTH_DIFF_RATIO = float(LAMBDA2**2 / LAMBDA3**2)


def point_count(ndim: int) -> int:
    """Number of function evaluations per region in ``ndim`` dimensions."""
    return 1 + 4 * ndim + 2 * ndim * (ndim - 1) + 2**ndim


@dataclass(frozen=True)
class GenzMalikRule:
    """Precomputed rule data for one dimensionality.

    Attributes
    ----------
    ndim:
        Dimensionality (2..20).
    points:
        ``(npoints, ndim)`` offsets on the reference cube ``[-1,1]^n``.
    w7, w5, w3a, w3b, w1:
        Per-point weight vectors (normalised to unit volume) for the main
        degree-7 rule and the embedded degree-5 / two degree-3 / degree-1
        companion rules.
    idx2_plus, idx2_minus, idx3_plus, idx3_minus:
        ``(ndim,)`` indices into ``points`` of the ±λ2 / ±λ3 star points per
        axis, used for fourth-difference axis selection.
    """

    ndim: int
    points: np.ndarray
    w7: np.ndarray
    w5: np.ndarray
    w3a: np.ndarray
    w3b: np.ndarray
    w1: np.ndarray
    idx2_plus: np.ndarray
    idx2_minus: np.ndarray
    idx3_plus: np.ndarray
    idx3_minus: np.ndarray
    orbit_weights: Dict[str, np.ndarray] = field(repr=False, default=None)

    @property
    def npoints(self) -> int:
        return self.points.shape[0]

    def flops_per_region(self, integrand_flops: float = 50.0) -> float:
        """Algorithmic flop estimate for one region evaluation.

        Used by the device cost model: point generation (2 flops per
        coordinate), the integrand itself, five weighted reductions, and the
        fourth-difference scan.
        """
        p = self.npoints
        n = self.ndim
        return p * (2.0 * n + integrand_flops) + 5.0 * 2.0 * p + 12.0 * n


def _per_point_weights(orbits, orbit_w: np.ndarray) -> np.ndarray:
    """Expand per-orbit weights to per-point weights in point order."""
    parts = [np.full(o.npoints, orbit_w[i]) for i, o in enumerate(orbits)]
    return np.concatenate(parts)


@lru_cache(maxsize=None)
def get_rule(ndim: int) -> GenzMalikRule:
    """Build (and cache) the Genz–Malik rule set for ``ndim`` dimensions."""
    orbits = make_orbits(ndim, LAMBDA2, LAMBDA3, LAMBDA4, LAMBDA5)

    # Weight solves.  Orbit indices: 0=center, 1=star(λ2), 2=star(λ3),
    # 3=pairs(λ4), 4=corners(λ5).
    w7_orb = solve_weights(orbits, ndim, degree=7)
    w5_orb = solve_weights(orbits, ndim, degree=5, use=[0, 1, 2, 3])
    w3a_orb = solve_weights(orbits, ndim, degree=3, use=[0, 1])
    w3b_orb = solve_weights(orbits, ndim, degree=3, use=[0, 2])
    w1_orb = solve_weights(orbits, ndim, degree=1, use=[0])

    pts = np.concatenate([o.points(ndim) for o in orbits], axis=0)
    pts = np.ascontiguousarray(pts)

    # Star-point indices per axis: orbit 1 occupies points [1, 1+2n) in the
    # order (+e_0, -e_0, +e_1, -e_1, ...); orbit 2 follows immediately.
    base2 = 1
    base3 = 1 + 2 * ndim
    axes = np.arange(ndim)
    idx2_plus = base2 + 2 * axes
    idx2_minus = base2 + 2 * axes + 1
    idx3_plus = base3 + 2 * axes
    idx3_minus = base3 + 2 * axes + 1

    rule = GenzMalikRule(
        ndim=ndim,
        points=pts,
        w7=_per_point_weights(orbits, w7_orb),
        w5=_per_point_weights(orbits, w5_orb),
        w3a=_per_point_weights(orbits, w3a_orb),
        w3b=_per_point_weights(orbits, w3b_orb),
        w1=_per_point_weights(orbits, w1_orb),
        idx2_plus=idx2_plus,
        idx2_minus=idx2_minus,
        idx3_plus=idx3_plus,
        idx3_minus=idx3_minus,
        orbit_weights={
            "w7": w7_orb,
            "w5": w5_orb,
            "w3a": w3a_orb,
            "w3b": w3b_orb,
            "w1": w1_orb,
        },
    )
    return rule


@dataclass(frozen=True)
class DeviceRule:
    """A :class:`GenzMalikRule`'s tensors resident on one backend.

    The hot path only ever reads these arrays; materialising them once
    per ``(backend, ndim)`` pair means a real accelerator backend uploads
    the point set and weight vectors a single time per process instead of
    once per ``evaluate`` sweep (host backends pay nothing either way —
    ``asarray`` is a no-copy view for NumPy arrays).
    """

    ndim: int
    points: Any
    #: ``(5, p)`` stacked rule weights, rows ``w7, w5, w3a, w3b, w1``
    weights: Any
    idx2_plus: Any
    idx2_minus: Any
    idx3_plus: Any
    idx3_minus: Any
    #: ``(7,)`` distinct point offsets, ascending: 0, ±λ2, ±λ3 (= ±λ4), ±λ5
    offsets: Any
    #: ``(p, n)`` F-ordered: ``offsets[index]`` is ``points``, bit for bit
    index: Any


def lattice_offsets(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct offsets of a point set and each coordinate's index.

    Returns ``(offsets, index)`` with ``offsets[index] == points``.  The
    index is F-ordered so each coordinate's column is contiguous, the
    form :class:`~repro.integrands.base.Lattice` gathers with.
    """
    # not np.unique: it imports numpy.ma, ~15 ms and 1 MB of start-up
    offsets = np.array(sorted(set(points.flat)))
    index = np.asfortranarray(np.searchsorted(offsets, points))
    return offsets, index


class RuleCache:
    """Process-wide cache of backend-resident rule tensors.

    Two caching layers exist for the Genz–Malik rules: :func:`get_rule`
    memoises the *host-side* construction (orbit generation and the moment
    solves) per dimensionality, and this cache memoises the *backend-side*
    tensors per ``(backend, ndim)`` pair.  Before the batched execution
    layer, every ``evaluate`` sweep re-coerced the rule arrays onto
    its backend; with many integrals in flight that rebuild multiplies, so
    the cache is keyed weakly by backend instance (a garbage-collected
    backend drops its tensors) and shared by every run in the process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._per_backend: (
            "weakref.WeakKeyDictionary[Any, Dict[int, DeviceRule]]"
        ) = weakref.WeakKeyDictionary()

    def device_rule(self, rule: GenzMalikRule, backend: Any) -> DeviceRule:
        """The backend-resident tensors for ``rule`` (built on first use)."""
        with self._lock:
            per = self._per_backend.get(backend)
            if per is None:
                per = {}
                self._per_backend[backend] = per
            dr = per.get(rule.ndim)
            if dr is None:
                offsets, index = lattice_offsets(rule.points)
                dr = DeviceRule(
                    ndim=rule.ndim,
                    points=backend.asarray(rule.points),
                    weights=backend.asarray(np.stack(
                        [rule.w7, rule.w5, rule.w3a, rule.w3b, rule.w1]
                    )),
                    idx2_plus=backend.asarray(rule.idx2_plus),
                    idx2_minus=backend.asarray(rule.idx2_minus),
                    idx3_plus=backend.asarray(rule.idx3_plus),
                    idx3_minus=backend.asarray(rule.idx3_minus),
                    offsets=backend.asarray(offsets),
                    index=backend.asarray(index),
                )
                per[rule.ndim] = dr
            return dr

    def stats(self) -> Dict[str, int]:
        """Cache occupancy: live backends and resident rule sets."""
        with self._lock:
            return {
                "backends": len(self._per_backend),
                "rules": sum(len(v) for v in self._per_backend.values()),
            }

    def clear(self) -> None:
        with self._lock:
            self._per_backend = weakref.WeakKeyDictionary()


#: the process-wide instance shared by every evaluate sweep
RULE_CACHE = RuleCache()


def published_degree7_orbit_weights(ndim: int) -> np.ndarray:
    """The closed-form Genz–Malik degree-7 orbit weights (per unit volume).

    Kept as an independent statement of the literature values so the test
    suite can assert the moment solver reproduces them.
    """
    n = ndim
    return np.array(
        [
            (12824.0 - 9120.0 * n + 400.0 * n * n) / 19683.0,
            980.0 / 6561.0,
            (1820.0 - 400.0 * n) / 19683.0,
            200.0 / 19683.0,
            (6859.0 / 19683.0) / 2**n,
        ]
    )


def published_degree5_orbit_weights(ndim: int) -> np.ndarray:
    """Closed-form embedded degree-5 orbit weights (per unit volume)."""
    n = ndim
    return np.array(
        [
            (729.0 - 950.0 * n + 50.0 * n * n) / 729.0,
            245.0 / 486.0,
            (265.0 - 100.0 * n) / 1458.0,
            25.0 / 729.0,
            0.0,
        ]
    )
