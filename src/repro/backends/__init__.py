"""Pluggable array-backend execution layer for the PAGANI hot path.

Why this layer exists
---------------------
The paper's central performance claim is architectural: evaluating *all*
live regions in one parallel sweep per iteration is what lets PAGANI use
a device fully.  The algorithm does not care what executes that sweep —
a CUDA grid, a BLAS-backed NumPy pass, or a thread pool.  This package
makes the substrate a first-class, swappable component so real hardware
(and future sharding/batching work) plugs in without touching the
algorithm in ``repro.core``.

Built-in backends
-----------------
``"numpy"`` (default)
    Single-threaded vectorized NumPy — the reference implementation.
``"threaded"`` / ``"threaded:<N>"``
    Chunk-parallel NumPy on an ``N``-wide thread pool (default: one per
    host CPU).  Bit-identical to ``"numpy"``: the chunk decomposition
    and per-chunk arithmetic are unchanged; only the schedule differs.
``"process"`` / ``"process:<N>"``
    Chunk-parallel NumPy on an ``N``-wide **process** pool — real
    multi-core scaling with no GIL in the way.  Workers receive picklable
    chunk specs (catalogue integrand spec or pickled callable, bounds
    slices), rebuild the rule tensors once per worker, and return result
    arrays that the parent stitches in deterministic chunk order; on the
    same chunk decomposition results are bit-identical to ``"numpy"``.
    Unshippable integrands (closures) degrade to in-process serial
    execution with unchanged numerics.  See :mod:`repro.backends.process`.
    On a host where process pools cannot run (a sandbox without
    semaphores) selecting it raises
    :class:`~repro.backends.base.BackendUnavailableError` (an
    ``ImportError``), and :func:`available_backends` omits it.

Selecting a backend
-------------------
Every user surface takes a backend spec — a name string or an
:class:`ArrayBackend` instance::

    from repro import integrate
    res = integrate(f, ndim=5, backend="threaded")        # api keyword

    from repro.core import PaganiConfig, PaganiIntegrator
    cfg = PaganiConfig(backend="threaded:8")              # config field

    pagani-repro run --integrand 8D-f7 --backend threaded # CLI flag

Spec strings are parsed in exactly one place: :func:`resolve_backend`
turns ``"family[:width]"`` into a typed :class:`BackendSpec` (the API,
CLI, router and registry all consume it), so width-suffix syntax and its
error messages cannot drift between surfaces.

Writing a new backend
---------------------
Subclass :class:`~repro.backends.base.ArrayBackend` (its module
docstring specifies the full contract), then register a factory::

    from repro.backends import register_backend

    class MyBackend(ArrayBackend):
        name = "mine"
        ...

    register_backend("mine", MyBackend)

The factory receives no arguments (parse options from your spec string
by registering a closure).  A conforming backend must satisfy the
protocol-conformance suite in ``tests/backends/test_backends.py`` —
point the ``backend`` fixture at your implementation; the suite asserts
primitive semantics and end-to-end agreement with the NumPy reference
on the Genz integrand families.

Contract highlights for implementers:

* ``map_integrand`` feeds the user's batch callable arrays of *your*
  type; hot-path math is NumPy-ufunc based and dispatches through
  ``__array_ufunc__`` / ``__array_function__``.
* ``run_chunks`` receives thunks writing disjoint output slices — any
  execution order (or concurrency) is valid.
* Scalar reductions return Python floats/ints; they are the iteration's
  synchronisation points, exactly like the Thrust reductions in the
  paper's CUDA implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.backends.base import ArrayBackend, BackendUnavailableError
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.process import (
    ProcessNumpyBackend,
    WorkerCrashError,
    process_pool_available,
)
from repro.backends.threaded import ThreadedNumpyBackend

__all__ = [
    "ArrayBackend",
    "BackendUnavailableError",
    "NumpyBackend",
    "ThreadedNumpyBackend",
    "ProcessNumpyBackend",
    "WorkerCrashError",
    "BackendLike",
    "BackendSpec",
    "resolve_backend",
    "backend_spec_help",
    "register_backend",
    "get_backend",
    "new_backend",
    "available_backends",
]

#: anything accepted where a backend is expected (name string, instance,
#: or ``None`` for the reference backend)
BackendLike = Union[str, ArrayBackend, None]

_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}
_AVAILABILITY: Dict[str, Callable[[], bool]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}


@dataclass(frozen=True)
class BackendSpec:
    """The typed form of a backend spec string ``"family[:width]"``.

    ``family`` is the registry name (``"numpy"``, ``"process"``, …, or
    ``"auto"`` for the router); ``width`` is the optional worker-count
    suffix.  Produced by :func:`resolve_backend` — the single parser every
    surface (API, CLI, router, registry) goes through.
    """

    family: str
    width: Optional[int] = None

    @property
    def spec(self) -> str:
        """The canonical spec string this parses back from."""
        return (
            self.family if self.width is None
            else f"{self.family}:{self.width}"
        )


def resolve_backend(spec: BackendLike) -> BackendSpec:
    """Parse a backend spec into its typed :class:`BackendSpec` form.

    The one authoritative spec parser: accepts a ``"family[:width]"``
    string (including ``"auto"``), an :class:`ArrayBackend` instance
    (family = the instance's registry name), an already-parsed
    :class:`BackendSpec` (returned unchanged) or ``None`` (the reference
    backend).  Raises :class:`~repro.errors.ConfigurationError` for a
    malformed width suffix or a non-spec object.  Family names are *not*
    checked against the registry here — :func:`get_backend` owns the
    unknown-name error so probing specs stays cheap.
    """
    from repro.errors import ConfigurationError

    if spec is None:
        return BackendSpec("numpy")
    if isinstance(spec, BackendSpec):
        return spec
    if isinstance(spec, ArrayBackend):
        return BackendSpec(spec.name)
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"backend must be a name or ArrayBackend instance, got {spec!r}"
        )
    name, sep, arg = spec.partition(":")
    if not sep:
        return BackendSpec(name)
    try:
        width = int(arg)
    except ValueError:
        raise ConfigurationError(
            f"bad worker count in backend spec {spec!r}"
        ) from None
    return BackendSpec(name, width)


def register_backend(
    name: str,
    factory: Callable[[], ArrayBackend],
    available: Optional[Callable[[], bool]] = None,
) -> None:
    """Register a backend factory under ``name``.

    ``available`` is an optional zero-argument probe used by
    :func:`available_backends`; backends whose probe returns False are
    still constructible explicitly (construction raises the precise
    error) but are not advertised.
    """
    _FACTORIES[name] = factory
    _AVAILABILITY[name] = available or (lambda: True)
    for key in [k for k in _INSTANCES if k == name or k.startswith(name + ":")]:
        _INSTANCES.pop(key)


#: pool backends accepting a ``<name>:<N>`` width suffix
_WIDTH_FACTORIES: Dict[str, Callable[[int], ArrayBackend]] = {
    "threaded": lambda width: ThreadedNumpyBackend(num_threads=width),
    "process": lambda width: ProcessNumpyBackend(num_workers=width),
}


def backend_spec_help() -> str:
    """Human-readable spec syntax for CLI ``--backend`` help text.

    Generated from the registry so the help can never drift from what
    :func:`get_backend` accepts: width-suffix backends render as
    ``name[:N]``.
    """
    return ", ".join(
        f"{name}[:N]" if name in _WIDTH_FACTORIES else name
        for name in sorted(_FACTORIES)
    )


def _build_backend(spec: str) -> ArrayBackend:
    """Construct a *fresh* backend instance from a name spec."""
    from repro.errors import ConfigurationError

    parsed = resolve_backend(spec)
    if parsed.family in _WIDTH_FACTORIES and parsed.width is not None:
        return _WIDTH_FACTORIES[parsed.family](parsed.width)
    if parsed.family not in _FACTORIES or parsed.width is not None:
        raise ConfigurationError(
            f"unknown backend {spec!r}; known backends: {sorted(_FACTORIES)}"
        )
    return _FACTORIES[parsed.family]()


def get_backend(spec: BackendLike = None) -> ArrayBackend:
    """Resolve a backend spec to a (shared) backend instance.

    ``None`` and ``"numpy"`` return the reference backend;
    ``"threaded:<N>"`` / ``"process:<N>"`` build an ``N``-wide pool
    (cached per width so repeated resolutions share one executor);
    instances pass through untouched.  Unknown names raise
    :class:`~repro.errors.ConfigurationError`; known-but-unusable
    backends (e.g. ``"process"`` where pools cannot run) raise
    :class:`BackendUnavailableError`.
    """
    from repro.errors import ConfigurationError

    if spec is None:
        spec = "numpy"
    if isinstance(spec, ArrayBackend):
        return spec
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"backend must be a name or ArrayBackend instance, got {spec!r}"
        )
    if spec not in _INSTANCES:
        _INSTANCES[spec] = _build_backend(spec)
    return _INSTANCES[spec]


def new_backend(spec: BackendLike = None) -> ArrayBackend:
    """Build a **fresh, unshared** backend instance from a spec.

    :func:`get_backend` shares one instance per spec string so casual
    resolutions reuse one executor; callers that need *isolated*
    instances — the sharded service pins one backend (and its pool) per
    shard — construct through this instead.  Instances pass through
    untouched, like :func:`get_backend`.
    """
    from repro.errors import ConfigurationError

    if spec is None:
        spec = "numpy"
    if isinstance(spec, ArrayBackend):
        return spec
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"backend must be a name or ArrayBackend instance, got {spec!r}"
        )
    return _build_backend(spec)


def available_backends() -> List[str]:
    """Names of the registered backends usable on this host."""
    return [name for name in sorted(_FACTORIES) if _AVAILABILITY[name]()]


register_backend("numpy", NumpyBackend)
register_backend("threaded", ThreadedNumpyBackend)
register_backend("process", ProcessNumpyBackend, available=process_pool_available)
