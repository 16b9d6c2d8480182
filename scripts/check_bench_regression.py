#!/usr/bin/env python3
"""CI gate: check a fresh ``repro bench`` record against the committed
baseline (``BENCH_runner.json``).

Usage: ``check_bench_regression.py CURRENT [BASELINE]``

Every gate is one row of ``GATES``: a section of the record, a dotted
metric path inside it (``a/b`` divides two paths), a kind and a bound.

* ``identical`` -- the flag must be true: arms whose outputs differ by a
  byte are a correctness bug, not a perf regression;
* ``floor`` / ``ceiling`` -- value >= / <= bound.  Both arms of these
  ratios run in the current record, so no baseline drift enters;
* ``vs_baseline`` -- current / baseline <= bound, for walls that only
  mean something against the committed baseline.  Walls are normalised
  (per simulated us, per probe run) so ``--quick`` records compare with
  the full-length baseline.

A row with ``min_workers`` applies only when the section's
``effective_workers`` reaches it.  Every other row is required: a
missing section or metric fails it.  One line is printed per row, and
the exit status is nonzero on any failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import NamedTuple, Optional


class Gate(NamedTuple):
    section: str
    metric: str
    kind: str
    bound: Optional[float] = None
    min_workers: int = 1


GATES = (
    Gate("sweep", "identical_merged_results", "identical"),
    # noisy CI runners: only flag real regressions
    Gate("sweep", "serial_wall_s/duration_us", "vs_baseline", 2.0),
    Gate("event_loop", "wheel_vs_heap", "floor", 1.0),
    # 512 tickers, the concurrency cluster sweeps dispatch at.  The wheel
    # once shipped at 0.82x here because every schedule paid an extra
    # call frame.  The 64-ticker row is the heap's home turf and ungated.
    Gate("kernel", "dispatch.wheel_vs_heap", "floor", 0.95),
    Gate("profiling", "wall_per_probe_run_s", "vs_baseline", 2.0),
    Gate("cluster_rate", "sweep.identical_calendars", "identical"),
    Gate("cluster_rate", "vectorized_vs_scalar", "floor", 2.0),
    Gate("cluster_rate", "sweep.identical_reports", "identical"),
    Gate("cluster_rate", "identical_event_counts", "identical"),
    # one core serialises both arms: the ratio would measure the OS
    Gate("dispatch_core", "skewed_mix.speedup", "floor", 1.3, min_workers=2),
    Gate("dispatch_core", "skewed_mix.identical_merged_results", "identical"),
    Gate("dispatch_core", "sharded_sweep.identical_merged_results",
         "identical"),
    # the paper's promise: Holmes's machinery is near-free when idle
    Gate("fault_overhead", "overhead_ratio", "ceiling", 1.05),
    Gate("resilience_overhead", "overhead_ratio", "ceiling", 1.05),
    Gate("obs_overhead", "disabled_ratio", "ceiling", 1.03),
    Gate("obs_overhead", "enabled_ratio", "ceiling", 1.15),
    Gate("runner_obs_overhead", "disabled_ratio", "ceiling", 1.05),
)

_RULES = {
    "identical": "must be true",
    "floor": ">= {bound:.2f}",
    "ceiling": "<= {bound:.2f}",
    "vs_baseline": "<= {bound:.2f}x baseline",
}


def _value(record: dict, section: str, metric: str):
    """``section.metric`` in ``record`` (``a/b`` divides); None if absent."""
    if "/" in metric:
        num, den = (_value(record, section, m) for m in metric.split("/"))
        return num / den if num is not None and den else None
    value = record.get(section)
    for key in metric.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return value


def _passes(kind: str, value, bound) -> bool:
    if kind == "identical":
        return value is True
    if kind == "floor":
        return value >= bound
    return value <= bound


def check(current: dict, baseline: dict) -> list[str]:
    """Print one line per gate; return a message for every failed gate."""
    failures = []
    for gate in GATES:
        name = f"{gate.section}.{gate.metric}"
        rule = _RULES[gate.kind].format(bound=gate.bound)
        value, where = _value(current, gate.section, gate.metric), "bench record"
        if gate.kind == "vs_baseline" and value is not None:
            base = _value(baseline, gate.section, gate.metric)
            value, where = (value / base if base else None), "baseline"
        if value is None:
            line = f"{name} is missing from the {where} ({rule})"
        else:
            shown = f"{value:.3f}" if isinstance(value, float) else value
            line = f"{name} = {shown} ({rule})"
            workers = _value(current, gate.section, "effective_workers") or 1
            if workers < gate.min_workers:
                print(f"skip {line}: needs {gate.min_workers} workers, "
                      f"record has {workers}")
                continue
            if _passes(gate.kind, value, gate.bound):
                print(f"ok   {line}")
                continue
        print(f"FAIL {line}")
        failures.append(line)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check a repro bench record against the GATES table."
    )
    parser.add_argument("current", help="bench record from this run")
    parser.add_argument("baseline", nargs="?", default="BENCH_runner.json",
                        help="committed baseline (default BENCH_runner.json)")
    args = parser.parse_args(argv)
    current = json.loads(pathlib.Path(args.current).read_text())
    baseline = json.loads(pathlib.Path(args.baseline).read_text())
    failures = check(current, baseline)
    for f in failures:
        print(f"REGRESSION: {f}", file=sys.stderr)
    if not failures:
        print("bench regression check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
