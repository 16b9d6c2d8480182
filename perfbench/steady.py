"""Steadiness check: run the benchmark over several seeds and report spreads.

Run from the repository root::

    python3 perfbench/steady.py --workloads colo-redis cluster-100 --runs 10

For each workload the benchmark runs ``--runs`` times with seeds
``--first-seed``, ``--first-seed + 1``, ...; for each end-to-end metric
of BENCHMARK.json it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread -- the distance
between the quartiles as a share of the median -- against the metric's
bound.  ``--output`` also writes every value as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH_DIR, "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stdout}{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]]
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    record = {}
    for workload in args.workloads:
        print(f"{workload}: {args.runs} runs, seeds from {args.first_seed}")
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, args.seconds))
            shown = ", ".join(f"{k} {v:.5g}" for k, v in runs[-1].items())
            print(f"  seed {seed}: {shown}", flush=True)
        record[workload] = {"runs": runs, "spread": {}}
        for name, bound in bounds.items():
            s = spread([r[name] for r in runs])
            record[workload]["spread"][name] = s
            print(
                f"  {name:<12} median {s['median']:<10.5g} "
                f"q1 {s['q1']:<10.5g} q3 {s['q3']:<10.5g} "
                f"spread {s['spread']:.4f} (bound {bound}, "
                f"{s['spread'] / bound:.2f} of it)"
            )
        sys.stdout.flush()
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
