"""Experiment cells: the atomic unit of fan-out, caching and hashing.

A *cell* is one self-contained computation — one co-location run, one
microbenchmark sweep — identified by ``(kind, params, seed)``.  Cells are
what the runner dispatches to worker processes and what the result cache
keys: experiments expand into cells, and several experiments routinely
expand into the *same* cells (every latency/SLO/throughput figure needs
the identical alone/holmes/perfiso triple), which is exactly the
redundancy the cell layer removes.

Cell functions return plain JSON-able dicts, never live simulation
objects: payloads must cross process boundaries, be hashable for cache
verification, and be byte-comparable across runs.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: default simulated horizon of a cell (microseconds); kept configurable
#: per-cell so sweeps and tests can trade fidelity for wall-clock.
DEFAULT_DURATION_US = 400_000.0

#: quantile grid stored per latency distribution (p0, p1, ..., p100).
#: Downstream aggregation (SLO violation ratios, normalised percentiles)
#: works off this grid so cells never ship full latency arrays.
QUANTILE_GRID = tuple(range(101))


@dataclass(frozen=True)
class Cell:
    """One cacheable unit of experiment work."""

    kind: str
    #: canonicalised as a sorted tuple of (name, value) pairs so equal
    #: parameter sets always hash and compare equal.
    params: tuple
    seed: int = 42

    @classmethod
    def make(cls, kind: str, params: dict | None = None, seed: int = 42) -> "Cell":
        return cls(kind, tuple(sorted((params or {}).items())), int(seed))

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    @property
    def cell_id(self) -> str:
        """Human-readable stable identifier (also the merge key)."""
        parts = [self.kind]
        parts += [f"{k}={v}" for k, v in self.params]
        parts.append(f"seed={self.seed}")
        return ";".join(parts)


def latency_summary(latencies: np.ndarray) -> dict:
    """Compact, deterministic summary of a latency sample."""
    lat = np.asarray(latencies, dtype=np.float64)
    if lat.size == 0:
        return {"count": 0, "mean": None, "quantiles": []}
    q = np.percentile(lat, QUANTILE_GRID)
    return {
        "count": int(lat.size),
        "mean": float(lat.mean()),
        "quantiles": [float(v) for v in q],
    }


def quantiles_violation_ratio(quantiles: list[float], slo_us: float) -> float:
    """Fraction of queries above ``slo_us``, off the stored quantile grid."""
    if not quantiles:
        return 0.0
    q = np.asarray(quantiles)
    # first grid point strictly above the SLO: everything from there on
    # violates, i.e. ratio ~= 1 - i/100.
    i = int(np.searchsorted(q, slo_us, side="right"))
    return max(0.0, 1.0 - i / (len(quantiles) - 1))


# -- cell bodies ---------------------------------------------------------------


def _colocation_cell(params: dict, seed: int) -> dict:
    from repro.core import HolmesConfig
    from repro.experiments.colocation import run_colocation
    from repro.experiments.common import ExperimentScale

    scale = ExperimentScale(
        duration_us=float(params.get("duration_us", DEFAULT_DURATION_US)),
        seed=seed,
    )
    holmes_config = None
    if "e_threshold" in params:
        holmes_config = HolmesConfig(
            n_reserved=scale.n_reserved,
            e_threshold=float(params["e_threshold"]),
        )
    res = run_colocation(
        params["service"],
        params["workload"],
        params["setting"],
        scale=scale,
        holmes_config=holmes_config,
        # fault plans ride as canonical JSON strings so cell params stay
        # hashable; run_colocation coerces back to a FaultPlan.  The obs
        # spec rides the same way (a category string like "all" or
        # "sched,fault"); run_colocation coerces it to a plane.
        faults=params.get("faults"),
        obs=params.get("obs"),
    )
    payload = {
        "service": res.service,
        "workload": res.workload,
        "setting": res.setting,
        "duration_us": float(res.duration_us),
        "latency": latency_summary(res.recorder.latencies()),
        "avg_cpu_utilization": float(res.avg_cpu_utilization),
        "jobs_completed": int(res.jobs_completed),
        "submitted": int(res.submitted),
        "trace": {
            "vpi_times": [float(t) for t in res.vpi_times],
            "vpi_values": [float(v) for v in res.vpi_values],
        },
    }
    if res.holmes_overhead is not None:
        payload["holmes_overhead"] = {
            k: (float(v) if isinstance(v, float) else v)
            for k, v in res.holmes_overhead.items()
        }
    if res.holmes_health is not None:
        payload["holmes_health"] = res.holmes_health
    if res.obs is not None:
        payload["obs"] = res.obs
    return payload


def _fig2_cell(params: dict, seed: int) -> dict:
    from repro.experiments.fig2_microbench import run_fig2

    cases = run_fig2(
        duration_us=float(params.get("duration_us", 30_000.0)), seed=seed
    )
    return {
        "cases": [
            {
                "label": c.label,
                "mean_us": float(c.mean),
                "count": int(c.latencies.size),
            }
            for c in cases
        ]
    }


def _hpe_cell(params: dict, seed: int) -> dict:
    from repro.experiments.fig4_table1_hpe import run_hpe_selection

    res = run_hpe_selection(
        duration_us=float(params.get("duration_us", 60_000.0)), seed=seed
    )
    return {
        "correlations": {
            f"0x{code:04X}": float(corr)
            for code, corr in res.correlations.items()
        },
        "selected_event": res.selected_event.name,
    }


def _convergence_cell(params: dict, seed: int) -> dict:
    from repro.experiments.table4_convergence import run_table4

    results = run_table4(
        heracles_epoch_us=float(params.get("heracles_epoch_us", 15_000_000.0)),
        parties_step_us=float(params.get("parties_step_us", 5_000_000.0)),
        seed=seed,
    )
    return {
        name: {
            "onset_us": float(r.onset_us),
            "convergence_us": (
                None if r.convergence_us is None else float(r.convergence_us)
            ),
            "sibling_occupied_at_onset": bool(r.sibling_occupied_at_onset),
        }
        for name, r in results.items()
    }


def _cluster_sweep_cell(params: dict, seed: int) -> dict:
    from repro.cluster.sweep import run_cluster_sweep

    kwargs = {
        k: params[k]
        for k in (
            "policy",
            "n_nodes",
            "n_jobs",
            "duration_us",
            "telemetry_interval_us",
            "check_interval_us",
            "admit_threshold",
            "relocate_threshold",
            "relocate_margin",
            "predict_admit_threshold",
            "predict_relocate_threshold",
            "predict_relocate_margin",
            "predict_lc_weight",
            "predict_probe_seed",
            "slo_multiplier",
            "faults",
            "max_resubmits",
            "obs",
        )
        if k in params
    }
    return run_cluster_sweep(seed=seed, **kwargs)


def _profile_cell(params: dict, seed: int) -> dict:
    """The profiling stage as a cacheable cell: probe, fit, score."""
    from repro.profiling import run_profile_stage

    kwargs = {}
    if "iterations" in params:
        kwargs["iterations"] = int(params["iterations"])
    if "duties" in params:
        kwargs["duties"] = tuple(float(d) for d in params["duties"])
    return run_profile_stage(seed=seed, **kwargs)


def _sleep_cell(params: dict, seed: int) -> dict:
    """Resilience-probe cell: burn ``wall_s`` of wall time, deterministically.

    The payload is a pure function of (params, seed) -- the sleep never
    leaks into it -- so chaos/resume identity checks hold while tests
    control exactly how long a cell occupies a worker.  ``mode="exit"``
    hard-kills the hosting process *unless* it is the process named by
    ``parent_pid``: a reproducible poisonous cell that murders every
    worker it lands on but computes fine in the parent backfill.
    """
    import os
    import time as _time

    wall_s = float(params.get("wall_s", 0.0))
    mode = params.get("mode", "ok")
    if mode == "exit" and os.getpid() != int(params.get("parent_pid", -1)):
        os._exit(17)
    if wall_s > 0.0:
        _time.sleep(wall_s)
    return {
        "wall_s": wall_s,
        "mode": mode,
        "tag": params.get("tag", ""),
        "seed": int(seed),
    }


CELL_KINDS: dict[str, Callable[[dict, int], dict]] = {
    "colocation": _colocation_cell,
    "fig2": _fig2_cell,
    "hpe": _hpe_cell,
    "convergence": _convergence_cell,
    "cluster_sweep": _cluster_sweep_cell,
    "profile": _profile_cell,
    "sleep": _sleep_cell,
}


def execute_cell(cell: Cell) -> dict:
    """Compute one cell's payload (runs inside worker processes)."""
    try:
        fn = CELL_KINDS[cell.kind]
    except KeyError:
        raise KeyError(
            f"unknown cell kind {cell.kind!r}; have {sorted(CELL_KINDS)}"
        ) from None
    return fn(cell.param_dict, cell.seed)


def release_cell() -> None:
    """Free the simulation a finished cell leaves behind.

    Call once the cell's payload has been handed off and outside any
    timed window.  A simulation is a web of reference cycles (processes,
    events, calendars, threads, the nodes that own them), so it outlives
    the cell until CPython's next *full* collection -- which, with the
    default thresholds, fires only every few cells.  Until then a worker
    carries the garbage of earlier cells and its high-water mark climbs.
    Collected here, the mark stays at what one cell needs.
    """
    gc.collect()

