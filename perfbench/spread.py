"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload http_replay --seeds 1-10

Runs ``run.py`` once per seed (one after another, never concurrently)
and prints, for each metric, the median of its values and the distance
between their first and third quartiles as a share of the median —
the figure a metric's ``bound`` in ``BENCHMARK.json`` must exceed three
times over for the benchmark to count as steady.  ``setup_s`` is
gated on its median only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    values: dict = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=BENCH.parent,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        line = json.loads(lines[-1])
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()), flush=True)
    summary = {}
    for name, vals in values.items():
        spread = stats.quartile_spread(vals)
        bound = bounds[name]
        summary[name] = {"median": stats.median(vals), "spread": spread,
                         "bound": bound, "values": vals}
        verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:<24} median {stats.median(vals):<12.6g} "
              f"spread {spread:7.2%}  bound {bound}  {verdict}")
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spread-{args.workload}.json").write_text(
        json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
