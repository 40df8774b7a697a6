"""Steadiness check: repeat the benchmark over seeds and compare spreads with bounds.

Run from the root of a checkout:

    python3 bench/steadiness.py --runs 10 [--workload NAME ...] [--first-seed 100]

For every workload it runs the command of ``BENCHMARK.json`` with ``--trace 0``
once per seed, one run at a time, and prints for each end-to-end metric the
median and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. A spread
must stay within the metric's bound (``setup_s`` excepted) and should stay
below a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            limit = "exempt" if m["name"] == "setup_s" else (
                "ok" if spread <= m["bound"] / 3 else
                "within bound" if spread <= m["bound"] else "OVER BOUND")
            ok &= limit != "OVER BOUND"
            print(f"  {workload} {m['name']}: median {median:.5g} {m['unit']}, "
                  f"spread {spread:.3f} (bound {m['bound']}): {limit}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
