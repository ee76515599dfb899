"""Golden regression: the Genz suite must reproduce pinned bits exactly.

The committed JSON pins estimate/errorest (as ``float.hex()`` strings),
iteration counts and evaluation counts for every Genz family on the numpy
reference backend.  Hot-path refactors — backend changes, scheduling
changes, evaluation-sweep rewrites — must not move these numbers by a
single ULP; an intentional numerical change regenerates the file via
``tests/golden/regen.py`` and explains itself in the commit message.
"""

import json
from pathlib import Path

import pytest

from repro.api import integrate
from repro.integrands.genz import make_genz
from tests.golden.regen import blas_fingerprint

GOLDEN_PATH = Path(__file__).parent / "genz_numpy_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: Bit-exactness is only promised on an environment whose BLAS dispatch
#: matches the one that generated the file: a different numpy build or
#: CPU microarchitecture may legally move results by an ULP.  The gate is
#: a runtime probe (a deterministic matvec hashed to hex — see
#: regen.blas_fingerprint), not version strings, so same-version hosts
#: with different SIMD kernels correctly fall back to the near-ULP
#: approximate comparison instead of failing spuriously.
_GEN = GOLDEN.get("generated_with", {})
SAME_ENVIRONMENT = _GEN.get("blas_probe") == blas_fingerprint()


def _case_id(row):
    return f"{row['ndim']}D-{row['family']}"


@pytest.mark.parametrize("row", GOLDEN["rows"], ids=_case_id)
def test_genz_bits_pinned(row):
    f = make_genz(row["family"], row["ndim"], seed=row["seed"])
    res = integrate(f, row["ndim"], rel_tol=row["rel_tol"], backend="numpy")
    if SAME_ENVIRONMENT:
        assert float(res.estimate).hex() == row["estimate_hex"], (
            f"estimate drifted: {res.estimate!r} vs pinned {row['estimate']!r}"
        )
        assert float(res.errorest).hex() == row["errorest_hex"], (
            f"errorest drifted: {res.errorest!r} vs pinned {row['errorest']!r}"
        )
        assert res.iterations == row["iterations"]
        assert res.neval == row["neval"]
        assert res.nregions == row["nregions"]
    else:
        # The same ULP drift the float fallback absorbs can flip an
        # iteration at a convergence boundary (changing neval/nregions
        # with it), so the exact counters are only pinned on the
        # generating environment.
        assert res.estimate == pytest.approx(row["estimate"], rel=1e-12)
        assert res.errorest == pytest.approx(
            row["errorest"], rel=1e-9, abs=1e-300
        )
        assert abs(res.iterations - row["iterations"]) <= 1
    assert res.status.value == row["status"]


def test_golden_covers_every_family():
    families = {r["family"] for r in GOLDEN["rows"]}
    assert families == {
        "oscillatory", "product_peak", "corner_peak", "gaussian", "c0",
        "discontinuous",
    }
    assert len(GOLDEN["rows"]) >= 12



def test_genz_bits_independent_of_blas_threads():
    """5D-c0 runs a 6250-region sweep: a threaded BLAS dot or gemv on
    that size splits its work unevenly across threads and moves the
    error estimate by an ULP.  The reductions are fixed-order, so fresh
    interpreters at 1 and 2 BLAS threads give the same bits."""
    import os
    import subprocess
    import sys

    row = next(r for r in GOLDEN["rows"] if _case_id(r) == "5D-c0")
    script = (
        "from repro.api import integrate\n"
        "from repro.integrands.genz import make_genz\n"
        f"f = make_genz('c0', 5, seed={row['seed']})\n"
        f"r = integrate(f, 5, rel_tol={row['rel_tol']!r}, backend='numpy')\n"
        "print(float(r.estimate).hex(), float(r.errorest).hex())\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        bits.append(proc.stdout.split())
    assert bits[0] == bits[1]
    if SAME_ENVIRONMENT:
        assert bits[0] == [row["estimate_hex"], row["errorest_hex"]]
