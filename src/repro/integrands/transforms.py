"""Domain transforms: integrate beyond the finite box.

The cubature substrate works on axis-aligned boxes.  Real applications (the
paper's motivating finance/physics workloads included) integrate over
infinite or semi-infinite domains or against Gaussian measures.  These
helpers produce new batch integrands over the unit cube with the Jacobian
folded in, so every integrator in the package applies unchanged:

* :func:`semi_infinite` — ``[0, ∞)^n`` via ``x = t/(1−t)``;
* :func:`infinite` — ``(−∞, ∞)^n`` via ``x = (2t−1)/(t(1−t))``-style
  rational stretching (one of the classic choices; tails must decay);
* :func:`gaussian_measure` — ``E_{z~N(μ, LLᵀ)}[f(z)]`` via the
  inverse-normal map (the standard quasi-random finance construction).

Each transform returns an :class:`~repro.integrands.base.Integrand` whose
metadata carries the extra per-point flop cost so the device model stays
honest.  When the wrapped integrand is itself a catalogue member (carries
a ``spec``) and the transform parameters are expressible in the spec
grammar, the result carries the canonical transform spec too — making it
cacheable in ``ResultCache``/``TieredResultCache`` and shippable to
process-backend workers exactly like a plain catalogue integrand.  A
transformed integrand's ``reference`` is ``None`` unless the caller
supplies one: the base's unit-cube reference does not survive a change
of domain.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.integrands.base import Integrand, fold_columns, weighted_sum

#: clip points one ulp inside the open cube before singular maps
_EPS = 1e-15

ParamLike = Union[float, Sequence[float], np.ndarray]


def _as_integrand(f, ndim: int) -> Integrand:
    if isinstance(f, Integrand):
        return f
    return Integrand(fn=f, ndim=ndim)


def _transform_spec(
    family: str, base: Integrand, params: Dict[str, ParamLike]
) -> Optional[str]:
    """The canonical spec of the transformed integrand, or ``None``.

    ``None`` when the base is an anonymous closure (no ``spec``) or the
    parameters fall outside the grammar (e.g. a non-diagonal Cholesky
    factor) — such integrands still work everywhere, but execute
    in-process and uncached.
    """
    if base.spec is None:
        return None
    from repro.integrands.catalog import canonical_spec  # lazy: avoid cycle

    args = [base.spec]
    for name, value in params.items():
        arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
        rendered = (
            repr(float(arr[0]))
            if arr.size == 1
            else "[" + ",".join(repr(float(v)) for v in arr) + "]"
        )
        args.append(f"{name}={rendered}")
    try:
        return canonical_spec(f"{family}({', '.join(args)})")
    except ValueError:
        return None


def semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    ndim: int,
    scale: float | Sequence[float] = 1.0,
    reference: Optional[float] = None,
) -> Integrand:
    """Map ``∫_{[0,∞)^n} f`` onto the unit cube with ``x = s·t/(1−t)``.

    ``scale`` (per-axis or scalar) tunes where the map concentrates points;
    pick it near the integrand's characteristic length.
    """
    base = _as_integrand(f, ndim)
    s = np.broadcast_to(np.asarray(scale, dtype=np.float64), (ndim,)).copy()
    if np.any(s <= 0):
        raise ValueError("scale must be positive")

    def fn(t: np.ndarray) -> np.ndarray:
        t = np.clip(t, _EPS, 1.0 - _EPS)
        one_minus = 1.0 - t
        x = s[None, :] * t / one_minus
        jac = fold_columns(
            np.multiply, one_minus,
            lambda j, oj, out: np.divide(s[j], np.square(oj, out=out), out=out),
        )
        return base.fn(x) * jac

    return Integrand(
        fn=fn,
        ndim=ndim,
        name=f"semi_infinite({base.name})" if base.name else "semi_infinite",
        reference=reference,
        flops_per_eval=base.flops_per_eval + 6.0 * ndim,
        sign_definite=base.sign_definite,
        spec=_transform_spec("semi_infinite", base, {"scale": s}),
    )


def infinite(
    f: Callable[[np.ndarray], np.ndarray],
    ndim: int,
    scale: float | Sequence[float] = 1.0,
    reference: Optional[float] = None,
) -> Integrand:
    """Map ``∫_{R^n} f`` onto the unit cube with ``x = s·(2t−1)/(t(1−t))``.

    Requires integrable tail decay (faster than ``|x|^{-2}`` per axis).
    """
    base = _as_integrand(f, ndim)
    s = np.broadcast_to(np.asarray(scale, dtype=np.float64), (ndim,)).copy()
    if np.any(s <= 0):
        raise ValueError("scale must be positive")

    def fn(t: np.ndarray) -> np.ndarray:
        t = np.clip(t, _EPS, 1.0 - _EPS)
        w = t * (1.0 - t)
        x = s[None, :] * (2.0 * t - 1.0) / w
        # dx/dt = s * (2w + (2t-1)^2) / w^2  (always positive)
        wT = w.T

        def dxdt(j: int, tj: np.ndarray, out: np.ndarray) -> np.ndarray:
            return np.divide(
                s[j] * (2.0 * wT[j] + (2.0 * tj - 1.0) ** 2), wT[j] * wT[j],
                out=out,
            )

        jac = fold_columns(np.multiply, t, dxdt)
        return base.fn(x) * jac

    return Integrand(
        fn=fn,
        ndim=ndim,
        name=f"infinite({base.name})" if base.name else "infinite",
        reference=reference,
        flops_per_eval=base.flops_per_eval + 10.0 * ndim,
        sign_definite=base.sign_definite,
        spec=_transform_spec("infinite", base, {"scale": s}),
    )


def gaussian_measure(
    f: Callable[[np.ndarray], np.ndarray],
    ndim: int,
    mean: Optional[Sequence[float]] = None,
    chol: Optional[np.ndarray] = None,
    reference: Optional[float] = None,
) -> Integrand:
    """Expectation against ``N(mean, L Lᵀ)`` as a unit-cube integral.

    ``∫ f(z) φ(z) dz = ∫_{[0,1]^n} f(mean + L·Φ⁻¹(u)) du`` — the standard
    inverse-CDF construction; ``chol`` defaults to the identity.
    """
    base = _as_integrand(f, ndim)
    mu = np.zeros(ndim) if mean is None else np.asarray(mean, dtype=np.float64)
    if mu.shape != (ndim,):
        raise ValueError(f"mean must have shape ({ndim},)")
    if chol is None:
        L = np.eye(ndim)
    else:
        L = np.asarray(chol, dtype=np.float64)
        if L.shape != (ndim, ndim):
            raise ValueError(f"chol must have shape ({ndim}, {ndim})")

    def fn(u: np.ndarray) -> np.ndarray:
        from scipy.special import ndtri

        z = ndtri(np.clip(u, _EPS, 1.0 - _EPS))
        # mean + z Lᵀ, one output axis at a time, each a column fold over
        # z: a BLAS gemm's (or einsum's) summation order would depend on
        # the chunk's row count, the BLAS thread count or z's layout.  The
        # base integrand gets the F-contiguous view of the (n, N) result.
        y = np.empty((ndim, z.shape[0]))
        for k in range(ndim):
            np.add(mu[k], weighted_sum(z, L[k]), out=y[k])
        return base.fn(y.T)

    # only diagonal covariances are expressible in the spec grammar
    spec_params: Optional[Dict[str, ParamLike]] = {"mean": mu}
    if np.count_nonzero(L - np.diag(np.diagonal(L))) == 0:
        spec_params["sigma"] = np.diagonal(L)
    else:
        spec_params = None

    return Integrand(
        fn=fn,
        ndim=ndim,
        name=f"gaussian_measure({base.name})" if base.name else "gaussian_measure",
        reference=reference,
        flops_per_eval=base.flops_per_eval + 2.0 * ndim * ndim + 30.0 * ndim,
        sign_definite=base.sign_definite,
        spec=(
            _transform_spec("gaussian_measure", base, spec_params)
            if spec_params is not None
            else None
        ),
    )
