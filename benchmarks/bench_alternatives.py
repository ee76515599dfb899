"""§2 background claims, measured: rule-cost growth and alternative methods.

Two quantitative claims from the paper's background section get benches:

* **§2.1 rule cost** — "For an n-dimensional region, [Genz–Malik] rules
  require 2^n + Θ(n³) function evaluations whereas the Gauss-Kronrod
  method requires 15^n": print both counts per dimension.
* **§1/§2 method comparison** — deterministic cubature "consistently
  outperforms" Monte Carlo methods at moderate dimension, and sparse grids
  lack the error estimates/local adaptivity the applications need: run
  PAGANI, VEGAS and Smolyak on the 4-D sharp Gaussian at matched budgets
  and compare true errors.

Writes ``results/alternatives.csv``.
"""

import csv

import harness as hz
from repro.baselines.vegas import VegasConfig, VegasIntegrator
from repro.core.pagani import PaganiConfig, PaganiIntegrator
from repro.cubature.rules import point_count as gm_count
from repro.integrands.paper import f4_gaussian
from repro.sparse_grids import SmolyakConfig, SmolyakIntegrator


def _run_comparison():
    integrand = f4_gaussian(4)
    results = {}
    results["pagani"] = PaganiIntegrator(
        PaganiConfig(rel_tol=1e-5), device=hz.bench_device()
    ).integrate(integrand, 4)
    results["vegas"] = VegasIntegrator(
        VegasConfig(rel_tol=1e-5, max_eval=results["pagani"].neval)
    ).integrate(integrand, 4)
    results["smolyak"] = SmolyakIntegrator(
        SmolyakConfig(rel_tol=1e-5, max_level=10, max_points=results["pagani"].neval)
    ).integrate(integrand, 4)
    return integrand, results


def test_rule_cost_growth(benchmark):
    rows = benchmark.pedantic(
        lambda: [(n, gm_count(n), 15**n) for n in range(2, 11)],
        rounds=1, iterations=1,
    )
    body = [[n, gm, gk, f"{gk / gm:.1f}x"] for n, gm, gk in rows]
    hz.print_table(
        "§2.1: evaluations per region — Genz–Malik vs tensor Gauss–Kronrod",
        ["ndim", "Genz–Malik", "GK 15^n", "ratio"],
        body,
        paper_note="GM: 2^n + Θ(n³); GK: 15^n — the reason Cuhre/PAGANI "
        "use the Genz–Malik family",
    )
    for n, gm, gk in rows:
        assert gk > gm
    # the gap must be superexponential in n
    assert rows[-1][2] / rows[-1][1] > 1e6


def test_alternative_methods_comparison(benchmark):
    integrand, results = benchmark.pedantic(_run_comparison, rounds=1, iterations=1)

    body = []
    errs = {}
    for name, res in results.items():
        err = abs(res.estimate - integrand.reference) / integrand.reference
        errs[name] = err
        body.append(
            [name, "yes" if res.converged else f"DNF({res.status.value})",
             res.neval, hz.fmt_e(err)]
        )
    hz.print_table(
        "§1/§2: PAGANI vs VEGAS vs Smolyak on 4D f4 (matched budgets)",
        ["method", "converged", "evals", "true rel err"],
        body,
        paper_note="deterministic adaptive cubature beats MC at moderate "
        "dimension; sparse grids lack local adaptivity on peaks",
    )

    hz.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with (hz.RESULTS_DIR / "alternatives.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "converged", "status", "neval", "true_rel_err"])
        for name, res in results.items():
            w.writerow([name, int(res.converged), res.status.value,
                        res.neval, errs[name]])

    assert results["pagani"].converged
    assert errs["pagani"] < errs["vegas"]
    assert errs["pagani"] < errs["smolyak"]
