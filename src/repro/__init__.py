"""pagani-repro: reproduction of *PAGANI: A Parallel Adaptive GPU Algorithm
for Numerical Integration* (Sakiotis et al., SC 2021) on a simulated GPU
substrate.

Quick start::

    import numpy as np
    from repro import integrate

    def f(x):                       # batch integrand: (N, ndim) -> (N,)
        return np.exp(-np.sum(x**2, axis=1))

    res = integrate(f, ndim=5, rel_tol=1e-6)
    print(res.estimate, res.errorest, res.converged)

Package map
-----------
``repro.core``        PAGANI itself (Algorithms 2 and 3)
``repro.cubature``    Genz–Malik rules, batch evaluation, two-level errors
``repro.batch``       batched multi-integrand scheduling (integrate_many)
``repro.service``     job queue + result cache service layer
                      (serve_jobs, serve_http, durable store)
``repro.backends``    pluggable array-execution backends (numpy/threaded/process)
``repro.gpu``         virtual device: cost model, memory pool, scheduler
``repro.baselines``   sequential Cuhre, two-phase GPU method, randomized QMC
``repro.integrands``  the paper's f1–f8 and the Genz families
``repro.reference``   semi-analytic reference values (box integrals)
``repro.diagnostics`` traces, tree statistics, load-imbalance reports
"""

from repro.api import (
    IntegrationRequest,
    integrate,
    integrate_many,
    integrate_request,
    integrate_sweep,
    serve_http,
    serve_jobs,
)
from repro.backends import ArrayBackend, available_backends, get_backend
from repro.core.pagani import PaganiConfig, PaganiIntegrator
from repro.core.result import IntegrationResult, Status
from repro.baselines.cuhre import CuhreConfig, CuhreIntegrator
from repro.baselines.two_phase import TwoPhaseConfig, TwoPhaseIntegrator
from repro.baselines.qmc import QmcConfig, QmcIntegrator
from repro.baselines.vegas import VegasConfig, VegasIntegrator
from repro.gpu.device import DeviceSpec, VirtualDevice
from repro.integrands.base import Integrand, ScalarIntegrand

__version__ = "1.0.0"

__all__ = [
    "integrate",
    "integrate_many",
    "integrate_request",
    "integrate_sweep",
    "IntegrationRequest",
    "serve_jobs",
    "serve_http",
    "IntegrationResult",
    "Status",
    "PaganiConfig",
    "PaganiIntegrator",
    "CuhreConfig",
    "CuhreIntegrator",
    "TwoPhaseConfig",
    "TwoPhaseIntegrator",
    "QmcConfig",
    "VegasConfig",
    "VegasIntegrator",
    "QmcIntegrator",
    "DeviceSpec",
    "VirtualDevice",
    "Integrand",
    "ScalarIntegrand",
    "ArrayBackend",
    "get_backend",
    "available_backends",
    "__version__",
]
