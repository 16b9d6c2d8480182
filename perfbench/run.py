"""The repo benchmark: a layer ledger over four end-to-end workloads.

Run from the repository root::

    python3 perfbench/run.py --workload colo-redis --seed 42 --seconds 22 --trace 0

One client drives a closed loop: a warm-up op, then ops back to back for
``--seconds``, each started only after the previous one returned and was
checked.  With ``--trace 0`` the last line of standard output is a JSON
object carrying the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` one more op runs under the layer tracer (cProfile plus
boundary counters, see ``layers.py``) and the JSON carries the per-layer
metrics.  Both modes print every metric, with its unit, above the JSON.
``--workload all`` runs each workload in turn in its own process.

The exit status is 0 only when every op's outputs passed their checks.
See README.md for what each metric means and which layer moves which.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import layers
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: where traced runs write their ledger (listed in .gitignore).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: the ``repro`` stack whose import is the set-up cost (``setup_s``).
STACK = (
    "repro.experiments.colocation",
    "repro.cluster.sweep",
    "repro.faults",
    "repro.runner",
    "repro.obs.runner",
)
#: fresh-interpreter imports timed per run; setup_s is their median
#: together with the benchmark's own import.
SETUP_PROBES = 4
#: a run times at least this many ops, however short ``--seconds`` is.
MIN_OPS = 3

_PROBE = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - t0)\n"
)

#: name -> (unit, description) of the end-to-end metrics, all printed by
#: every run.  Host metrics come from the timed ops.
END_TO_END = {
    "wall_s": ("s", "median op wall time"),
    "wall_s_tail": ("s", "tail op wall time"),
    "sim_rate": ("node-ms/s", "simulated node-ms per host second"),
    "peak_rss_mb": ("MB", "peak RSS, benchmark process plus worker slots"),
    "setup_s": ("s", "import of the repro stack, median of fresh interpreters"),
    "fail_ratio": ("ratio", "failed ops / attempted ops"),
    "sim_lc_mean_us": ("sim-us", "LC mean latency, simulated"),
    "sim_lc_p99_us": ("sim-us", "LC p99 latency, simulated"),
    "sim_cpu_util": ("ratio", "whole-run CPU utilisation, simulated"),
    "sim_slo_violation_ratio": ("ratio", "LC queries over the SLO, simulated"),
    "sim_jobs_per_s": ("jobs/sim-s", "batch jobs completed per simulated s"),
}
#: the end-to-end metrics BENCHMARK.json bounds: those that stay steady
#: from run to run.  On a shared host, speed drifts by more than the
#: largest allowed bound between runs minutes apart, so the timing
#: metrics travel unbounded with the per-layer metrics (see README.md).
GATED = ("peak_rss_mb", "sim_lc_mean_us", "setup_s")
#: end-to-end timing metrics reported, unbounded, beside the layers.
TIMING = ("wall_s", "wall_s_tail", "sim_rate")


def _per_layer_units() -> dict:
    units = {name: END_TO_END[name][0] for name in TIMING}
    units.update({f"{layer}.self_s": "s" for layer in layers.LAYERS})
    for name in layers.COUNTS:
        units[name] = "bytes" if name == "runner.frame_bytes" else "count"
    units.update(
        {
            "build_s": "s",
            "run_s": "s",
            "collect_s": "s",
            "sim.ns_per_push": "ns",
            "runner.handshake_s": "s",
            "runner.wait_s": "s",
            "runner.compute_s": "s",
            "runner.worker_util": "ratio",
            "runner.spec_waste": "ratio",
            "trace_overhead": "ratio",
        }
    )
    return units


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) of the tail op time.

    The highest percentile with ten ops beyond it once a run holds 44 or
    more ops; below that, the highest with a quarter of the ops (at least
    one) beyond it.
    """
    n = len(walls)
    beyond = min(10, max(1, n // 4))
    ordered = sorted(walls)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def peak_rss_mb(worker_slots: int) -> float:
    """Own peak RSS plus, per worker slot, the largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker_slots * child) / 1024.0


def setup_probe() -> float:
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, SRC, *STACK],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return float(out.stdout.strip())


def _run_all(args) -> int:
    status = 0
    for name in workloads.NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace), "--size", args.size]
        status = max(status, subprocess.run(argv).returncode)
    return status


def _print_rows(rows: list[tuple[str, object, str, str]]) -> None:
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<26} {shown:>14} {unit:<10} {note}")


def _verify(wl, raw, expected: str, label: str) -> list[str]:
    """The op's broken checks, each prefixed with ``label``."""
    problems = wl.check(raw)
    if wl.digest(raw) != expected:
        problems.append("payload digest differs from the warm-up op")
    return [f"{label}: {p}" for p in problems]


def measure(args) -> int:
    t0 = time.perf_counter()
    try:
        for name in STACK:
            importlib.import_module(name)
    except ImportError as exc:
        print(f"perfbench: cannot import the repro stack: {exc}", file=sys.stderr)
        return 2
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from outside {SRC}", file=sys.stderr)
        return 2
    setup_samples = [time.perf_counter() - t0]

    wl = workloads.make(args.workload, args.size)
    seed = args.seed
    failures: list[str] = []

    warm = wl.op(seed)
    expected = wl.digest(warm)
    failures += [f"warm-up: {p}" for p in wl.check(warm)]
    sim = wl.sim_metrics(warm)

    walls, computes = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        t = time.perf_counter()
        raw = wl.op(seed)
        walls.append(time.perf_counter() - t)
        computes.append(wl.compute_s(raw))
        attempted += 1
        problems = _verify(wl, raw, expected, f"op {attempted}")
        failed += bool(problems)
        failures += problems
        del raw
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_OPS and elapsed + statistics.median(walls) > args.seconds:
            break
    loop_s = time.perf_counter() - start
    rss = peak_rss_mb(wl.workers)

    reference = wl.reference_digest(seed)
    if reference is not None and reference != expected:
        failures.append("socket report differs from the in-process reference")
        failed = attempted

    summary = None
    if args.trace:
        gc.collect()
        raw, summary = wl.traced(seed, OUT_DIR)
        attempted += 1
        problems = _verify(wl, raw, expected, "traced op")
        failed += bool(problems)
        failures += problems
        del raw

    setup_samples += [setup_probe() for _ in range(SETUP_PROBES)]

    wall = statistics.median(walls)
    tail_s, tail_pct, beyond = tail(walls)
    e2e = {
        "wall_s": wall,
        "wall_s_tail": tail_s,
        "sim_rate": wl.node_ms / wall,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup_samples),
        "fail_ratio": failed / attempted,
        **sim,
    }
    notes = {
        "wall_s": f"median of {len(walls)} ops",
        "wall_s_tail": f"p{tail_pct:.0f}, {beyond} op(s) beyond, {len(walls)} ops",
        "setup_s": f"median of {len(setup_samples)} imports",
        "fail_ratio": f"{failed} of {attempted}",
    }
    print(
        f"workload {wl.name}  seed {seed}  closed loop, 1 client, "
        f"{len(walls)} timed ops in {loop_s:.1f} s"
    )
    print(f"  payload sha256 {expected}")
    _print_rows(
        [
            (name, e2e[name], unit, notes.get(name, desc))
            for name, (unit, desc) in END_TO_END.items()
        ]
    )
    for line in failures:
        print(f"  FAILED {line}")

    if summary is None:
        metrics = {name: (e2e[name], END_TO_END[name][0]) for name in GATED}
    else:
        per_layer = {name: e2e[name] for name in TIMING}
        per_layer.update(_per_layer(wl, summary, walls, computes))
        units = _per_layer_units()
        print("per-layer (traced op):")
        _print_rows([(n, v, units[n], "") for n, v in per_layer.items()])
        metrics = {name: (v, units[name]) for name, v in per_layer.items()}
        _write_ledger(wl.name, seed, e2e, summary, per_layer)

    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _per_layer(wl, summary: dict, walls: list, computes: list) -> dict:
    wall = statistics.median(walls)
    compute = statistics.median(computes)
    pushes = summary["counts"]["sim.calendar_pushes"]
    out = {f"{layer}.self_s": summary["self_s"][layer] for layer in layers.LAYERS}
    out.update({name: summary["counts"][name] for name in layers.COUNTS})
    out.update(summary["phases"])
    runner = summary["runner"]
    host_s = compute if wl.workers else wall
    out.update(
        {
            "sim.ns_per_push": host_s * 1e9 / pushes if pushes else 0.0,
            "runner.handshake_s": runner.get("runner.handshake_s", 0.0),
            "runner.wait_s": runner.get("runner.wait_s", 0.0),
            "runner.compute_s": compute,
            "runner.worker_util": statistics.median(
                c / (w * wl.workers) if wl.workers else 0.0
                for c, w in zip(computes, walls)
            ),
            "runner.spec_waste": runner.get("runner.spec_waste", 0.0),
            "trace_overhead": summary["wall_s"] / wall - 1.0,
        }
    )
    return out


def _write_ledger(name: str, seed: int, e2e: dict, summary: dict, per_layer: dict):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"ledger-{name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "end_to_end": e2e,
                "per_layer": per_layer,
                "trace": summary,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
    print(f"  ledger written to {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    sys.path.insert(0, SRC)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=tuple(workloads.SIZES),
        default="full",
        help="op sizes; 'smoke' is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
