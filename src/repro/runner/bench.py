"""``repro bench``: the A/B measurements behind the CI gate.

Each A/B section runs the same work under two or three arms, interleaved
and min-of-N (:func:`_ab`), and records the per-arm walls, the ratio a
gate reads, and the byte-identity flags that prove the arms computed
the same thing.  Everything lands in ``BENCH_runner.json``;
``scripts/check_bench_regression.py`` holds the gates and their bounds
in one table (``GATES``).

* **sweep** -- a 4-experiment co-location sweep run serially and through
  the pooled, cached runner: serial/parallel identity, and the serial
  wall that the gate compares with the baseline per simulated us.
* **fault_overhead**, **obs_overhead**, **resilience_overhead**,
  **runner_obs_overhead** -- a run without the machinery against the
  same run with it attached but idle: an empty fault plan, an obs plane
  with every category off, an empty chaos plan plus a fsynced journal,
  a disabled runner telemetry plane.  The obs and runner-telemetry
  sections add a fully enabled arm.
* **profiling** -- wall per probe run of the micro-probe profiling
  stage, and the fitted pair model's ``predict_excess`` throughput.
* **event_loop** -- heap vs wheel calendar under a bare auto-rearming
  timer flood (131,072 timers, 16,384 with ``--quick``).
* **kernel** -- heap vs wheel with generator processes in the loop: 512
  tickers (the concurrency a cluster sweep runs at) and 64 (the heap's
  home turf, recorded only).
* **cluster_rate** -- the vectorized cluster data plane against the
  scalar reference on an idle 100-node cluster's per-tick telemetry and
  placement scans, plus one churned 100-node score sweep run three ways
  (wheel+vectorized, heap+vectorized, wheel+scalar) whose reports must
  be byte-identical.
* **dispatch_core** -- the dispatch core's longest-expected-first order
  against shortest-first on a skewed cell mix, and a sharded 1,000-node
  sweep whose merged report must be identical on every executor.

The bench fails (nonzero exit through the CLI) if any identity flag is
false.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
import time
from typing import Callable, Hashable, Iterable, Optional

from repro.runner.aggregate import ExperimentRequest
from repro.runner.cache import ResultCache
from repro.runner.runner import ExperimentRunner

#: simulated horizon of each bench sweep cell (microseconds).  Short
#: enough that the whole bench stays interactive, long enough that each
#: cell does real scheduling work.
BENCH_DURATION_US = 80_000.0

#: timer-flood period mix: 50 us (the Holmes tick) up to 1050 us (cluster
#: telemetry scale), pseudo-randomly spread so firings interleave.
_PERIOD_BASE_US = 50.0
#: E[1/period] of the mix; used to size horizons for a target event count.
_MEAN_INV_PERIOD = 3.0445e-3

#: wheel geometry for the kernel benches: bucket at a tenth of the
#: dominant 50 us period keeps the per-bucket sorted batches small while
#: the 1024-slot ring still spans every period in the mix.
FLOOD_BUCKET_US = 5.0
FLOOD_WHEEL_SLOTS = 1024

#: event-loop flood population (full / --quick).
EVENT_LOOP_TIMERS = 131_072
EVENT_LOOP_TIMERS_QUICK = 16_384

CLUSTER_NODES = 100

#: (section, path) of every byte-identity flag a record can carry.
IDENTITY_FLAGS = (
    ("sweep", "identical_merged_results"),
    ("cluster_rate", "identical_event_counts"),
    ("cluster_rate", "sweep.identical_reports"),
    ("cluster_rate", "sweep.identical_calendars"),
    ("dispatch_core", "skewed_mix.identical_merged_results"),
    ("dispatch_core", "sharded_sweep.identical_merged_results"),
)


def _ab(arms: Iterable[Hashable], run_one: Callable[[Hashable], float],
        repeats: int) -> dict:
    """Run every arm ``repeats`` times, interleaved; return per-arm min wall.

    ``run_one(arm)`` does one timed run and returns its wall in seconds.
    Each repeat runs every arm once, so CPU frequency drift lands on all
    arms alike, and min-of-N drops the slow outliers of a shared box.
    """
    walls: dict = {arm: [] for arm in arms}
    for _ in range(repeats):
        for arm in walls:
            walls[arm].append(run_one(arm))
    return {arm: min(w) for arm, w in walls.items()}


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    """``num / den``, or None when either side is missing or zero."""
    return num / den if num and den else None


@contextlib.contextmanager
def _env(var: str, value: str):
    """Set environment variable ``var`` to ``value`` for the block."""
    prev = os.environ.get(var)
    os.environ[var] = value
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = prev


def _rates(arms: Iterable[str], run_once, repeats: int) -> dict:
    """Per-arm events/sec; ``run_once(arm)`` returns ``(wall_s, events)``."""
    events: dict[str, int] = {}

    def one(arm: str) -> float:
        wall, events[arm] = run_once(arm)
        return wall

    best = _ab(arms, one, repeats)
    return {
        arm: {
            "events": events[arm],
            "wall_s": wall,
            "events_per_sec": _ratio(events[arm], wall),
        }
        for arm, wall in best.items()
    }


def _heap_vs_wheel(run_once, repeats: int) -> dict:
    out = _rates(("heap", "wheel"), run_once, repeats)
    out["wheel_vs_heap"] = _ratio(out["wheel"]["events_per_sec"],
                                  out["heap"]["events_per_sec"])
    return out


def _make_kernel(calendar: str):
    from repro.sim import HeapEnvironment, WheelEnvironment

    if calendar == "heap":
        return HeapEnvironment()
    return WheelEnvironment(bucket_us=FLOOD_BUCKET_US,
                            wheel_slots=FLOOD_WHEEL_SLOTS)


def _flood_once(calendar: str, n_timers: int,
                horizon_us: float) -> tuple[float, int]:
    """One auto-rearming timer flood; returns (wall_s, events).

    Pure calendar churn: every event is popped, re-armed one period into
    the future, and dispatched to an empty callback list -- no generator
    in the loop, so the number isolates the calendar kernel itself.
    """
    from repro.sim import RecurringTimeout

    env = _make_kernel(calendar)
    for i in range(n_timers):
        period = _PERIOD_BASE_US + ((i * 2654435761) % 1_000_000) / 1000.0
        RecurringTimeout(env, period, auto=True)
    t0 = time.perf_counter()
    env.run(until=horizon_us)
    return time.perf_counter() - t0, env._seq


def _dispatch_once(calendar: str, n_tickers: int,
                   horizon_us: float) -> tuple[float, int]:
    """One generator-dispatch run (tickers on distinct co-prime-ish
    periods, manual rearm); returns (wall_s, events)."""
    from repro.sim import RecurringTimeout

    def ticker(env, period: float):
        timer = RecurringTimeout(env, period)
        while True:
            yield timer
            timer.rearm()

    env = _make_kernel(calendar)
    for i in range(n_tickers):
        env.process(ticker(env, 1.0 + 0.37 * i))
    t0 = time.perf_counter()
    env.run(until=horizon_us)
    return time.perf_counter() - t0, env._seq


def bench_kernel(quick: bool = False) -> tuple[dict, dict]:
    """Heap vs wheel: the ``event_loop`` flood and the ``kernel`` dispatch
    rows.

    Population matters for dispatch: at 64 tickers the heap's sifts are
    6 levels deep and it holds a ~5-10% edge -- the wheel's per-schedule
    bucket bookkeeping is pure Python while ``heappush`` is one C call.
    From a few hundred timers up the wheel draws level and pulls ahead,
    so the gated row runs at 512 tickers and the 64-ticker row documents
    the small-population trade-off.
    """
    n_timers = EVENT_LOOP_TIMERS_QUICK if quick else EVENT_LOOP_TIMERS
    horizon = (250_000 if quick else 600_000) / (n_timers * _MEAN_INV_PERIOD)
    event_loop = _heap_vs_wheel(
        lambda cal: _flood_once(cal, n_timers, horizon), repeats=2
    )
    event_loop.update(n_timers=n_timers, bucket_us=FLOOD_BUCKET_US,
                      wheel_slots=FLOOD_WHEEL_SLOTS)
    # more repeats on the gated row: the 0.95x floor needs the ratio
    # stable to a couple of percent.
    dispatch = _heap_vs_wheel(
        lambda cal: _dispatch_once(cal, 512, 15_000.0 if quick else 25_000.0),
        repeats=4 if quick else 5,
    )
    dispatch["n_tickers"] = 512
    dispatch_small = _heap_vs_wheel(
        lambda cal: _dispatch_once(cal, 64, 15_000.0 if quick else 40_000.0),
        repeats=2 if quick else 3,
    )
    dispatch_small["n_tickers"] = 64
    kernel = {
        "bucket_us": FLOOD_BUCKET_US,
        "wheel_slots": FLOOD_WHEEL_SLOTS,
        "dispatch": dispatch,
        "dispatch_small": dispatch_small,
    }
    return event_loop, kernel


def bench_cluster_rate(quick: bool = False, seed: int = 42) -> dict:
    """Cluster data-plane throughput at 100 nodes, and sweep identity.

    The data-plane "event" is one per-node unit of telemetry work: one
    daemon tick (a monitor collect) or one node visited by a full
    placement scan.  An idle 100-node cluster runs every node's Holmes
    daemon at the cluster telemetry interval while a scanner performs one
    full ``pick_node`` score scan per boundary -- the exact per-tick hot
    path the vectorized plane batches, isolated from workload simulation
    cost (which dominates the churned sweep and would dilute the ratio).
    Both arms execute the identical event sequence, so events/sec ratios
    reduce to wall ratios.

    One churned 100-node score sweep then runs on the default wheel
    calendar and vectorized plane, on the heap calendar, and on the
    scalar plane: neither the calendar nor the plane may change a byte
    of the report.  Full mode uses the perfbench ``cluster-100`` shape.
    """
    from repro.analysis.export import canonical_dumps
    from repro.cluster.cluster import Cluster
    from repro.cluster.dataplane import DATA_PLANE_ENV_VAR
    from repro.cluster.scheduler import ClusterBatchScheduler
    from repro.cluster.sweep import run_cluster_sweep
    from repro.core import HolmesConfig

    interval_us = 1_000.0
    duration_us = 30_000.0 if quick else 80_000.0
    repeats = 2 if quick else 3

    def one_rate(mode: str) -> tuple[float, int]:
        with _env(DATA_PLANE_ENV_VAR, mode):
            cluster = Cluster(
                n_servers=CLUSTER_NODES,
                seed=seed,
                holmes_config=HolmesConfig(interval_us=interval_us),
            )
            scheduler = ClusterBatchScheduler(cluster, policy="score")
            scans = [0]

            def scanner():
                while True:
                    yield cluster.env.timeout(interval_us)
                    scheduler.pick_node()
                    scans[0] += 1

            cluster.env.process(scanner(), name="bench-scanner")
            t0 = time.perf_counter()
            cluster.run(until=duration_us)
            wall = time.perf_counter() - t0
            ticks = sum(node.holmes.ticks for node in cluster.nodes)
            cluster.stop_daemons()
        return wall, ticks + scans[0] * CLUSTER_NODES

    rate = _rates(("scalar", "vectorized"), one_rate, repeats)

    sweep_jobs = 30 if quick else 80
    sweep_us = 30_000.0 if quick else 100_000.0
    reports: dict[tuple[str, str], str] = {}

    def one_sweep(arm: tuple[str, str]) -> float:
        calendar, plane = arm
        with _env("REPRO_SIM_CALENDAR", calendar):
            with _env(DATA_PLANE_ENV_VAR, plane):
                t0 = time.perf_counter()
                report = run_cluster_sweep(
                    policy="score", n_nodes=CLUSTER_NODES, n_jobs=sweep_jobs,
                    duration_us=sweep_us, seed=seed,
                )
                wall = time.perf_counter() - t0
        reports[arm] = canonical_dumps(report)
        return wall

    ref, heap, scalar = (("wheel", "vectorized"), ("heap", "vectorized"),
                         ("wheel", "scalar"))
    sweep = _ab((ref, heap, scalar), one_sweep, repeats=1)
    return {
        "n_nodes": CLUSTER_NODES,
        "interval_us": interval_us,
        "duration_us": duration_us,
        "repeats": repeats,
        "seed": seed,
        **rate,
        "identical_event_counts": (
            rate["scalar"]["events"] == rate["vectorized"]["events"]
        ),
        "vectorized_vs_scalar": _ratio(rate["vectorized"]["events_per_sec"],
                                       rate["scalar"]["events_per_sec"]),
        "sweep": {
            "n_jobs": sweep_jobs,
            "duration_us": sweep_us,
            "vectorized_wall_s": sweep[ref],
            "heap_wall_s": sweep[heap],
            "scalar_wall_s": sweep[scalar],
            "speedup": _ratio(sweep[scalar], sweep[ref]),
            "identical_reports": reports[scalar] == reports[ref],
            "identical_calendars": reports[heap] == reports[ref],
        },
    }


def _colo(duration_us: float, seed: int) -> ExperimentRequest:
    """One Redis/YCSB-A co-location cell under Holmes."""
    return ExperimentRequest.make(
        "colocation",
        {"service": "redis", "workload": "a", "setting": "holmes",
         "duration_us": duration_us},
        seed,
    )


def bench_dispatch_core(parallel: int = 8, quick: bool = False,
                        seed: int = 42) -> dict:
    """The dispatch core's LPT order vs shortest-first, plus executor identity.

    Two measurements:

    * **skewed_mix** -- a pile of short colocation cells with one long
      cell appended *last*.  The baseline arm runs the same dispatch core
      over the same pool, fed shortest-first ``cost_hints``, so the long
      cell starts only after every short one has been handed out and the
      tail of the run is one worker grinding alone; the core arm's cost
      model puts the long cell first and back-fills the short ones
      around it.  With ``W`` seconds of short work sized
      at ``0.8 * (workers - 1) * heavy_wall``, the expected ratio is
      ``1 + 0.8 * (workers - 1) / workers`` (1.4x at two workers, 1.6x
      at four).  Both arms' merged reports must be byte-identical.  The
      pool is clamped to ``os.cpu_count()``: oversubscribed workers
      timeshare the long cell and measure the OS scheduler, not the
      dispatch policy.  On a single-core box the ratio is meaningless
      (everything serialises), so the record carries
      ``effective_workers`` for the gate.  Speculation is off in both
      arms: a speculative clone of the straggler would re-run the long
      cell from scratch and add noise, not signal, at this scale.
    * **sharded_sweep** -- a 1,000-node cluster sweep sharded into
      per-node-range cells, run through ``InProcessExecutor``,
      ``PoolExecutor`` at two sizes, and ``SocketExecutor``.  The merged
      reports must be byte-identical across every arm: the transport
      and the fan-out width must never leak into results.
    """
    from repro.runner.aggregate import expand_request

    eff = max(1, min(parallel, os.cpu_count() or 1))
    heavy_us = 100_000.0 if quick else 200_000.0
    cheap_us = 5_000.0
    repeats = 2

    def serial_wall(req: ExperimentRequest) -> float:
        t0 = time.perf_counter()
        ExperimentRunner(parallel=1).run([req])
        return time.perf_counter() - t0

    # calibrate the short/long cost ratio on this machine (fixed per-cell
    # setup cost makes it flatter than the duration ratio); these serial
    # runs also warm every import so neither timed arm pays them.
    cheap_wall = serial_wall(_colo(cheap_us, seed))
    heavy_wall = serial_wall(_colo(heavy_us, seed + 1))
    ratio = heavy_wall / cheap_wall if cheap_wall > 0 else 1.0
    n_cheap = max(eff, min(96, round(0.8 * max(eff - 1, 1) * ratio)))
    requests = [_colo(cheap_us, seed + 10 + i) for i in range(n_cheap)]
    requests.append(_colo(heavy_us, seed + 1))
    # shortest-first: a cell's hint is the inverse of its simulated
    # duration, so the long cell sorts last, where the input order
    # puts it.
    hints = {
        "shortest_first": {
            cell.cell_id: 1.0 / cell.param_dict["duration_us"]
            for req in requests
            for _role, cell in expand_request(req)
        },
        "core": None,
    }
    blobs: dict[str, bytes] = {}

    def one_mix(arm: str) -> float:
        runner = ExperimentRunner(parallel=eff, executor="pool", speculate=0,
                                  cost_hints=hints[arm])
        report = runner.run(requests)
        blobs[arm] = report.merged_bytes()
        return report.wall_s

    mix = _ab(hints, one_mix, repeats)

    shard_req = [
        ExperimentRequest.make(
            "cluster_shard",
            {"policies": ("score",), "shards": 8, "n_nodes": 1000,
             "n_jobs": 150 if quick else 300,
             "duration_us": 3_000.0 if quick else 8_000.0},
            seed,
        )
    ]
    shard_arms = []
    shard_blobs = []
    for executor, workers in (
        ("inprocess", 1),
        ("pool", 2),
        ("pool", eff),
        ("socket", 2),
    ):
        runner = ExperimentRunner(parallel=workers, executor=executor,
                                  speculate=0)
        report = runner.run(shard_req)
        shard_arms.append(
            {"executor": executor, "parallel": workers,
             "wall_s": report.wall_s}
        )
        shard_blobs.append(report.merged_bytes())

    return {
        "requested_parallel": parallel,
        "effective_workers": eff,
        "cpu_count": os.cpu_count(),
        "skewed_mix": {
            "n_cheap": n_cheap,
            "cheap_duration_us": cheap_us,
            "heavy_duration_us": heavy_us,
            "cheap_wall_s": cheap_wall,
            "heavy_wall_s": heavy_wall,
            "repeats": repeats,
            "shortest_first_wall_s": mix["shortest_first"],
            "core_wall_s": mix["core"],
            "speedup": _ratio(mix["shortest_first"], mix["core"]),
            "identical_merged_results": (
                blobs["shortest_first"] == blobs["core"]
            ),
        },
        "sharded_sweep": {
            "n_nodes": 1000,
            "shards": 8,
            "n_jobs": 150 if quick else 300,
            "duration_us": 3_000.0 if quick else 8_000.0,
            "arms": shard_arms,
            "identical_merged_results": all(
                blob == shard_blobs[0] for blob in shard_blobs
            ),
        },
    }


def _holmes_wall(duration_us: float, seed: int, **holmes_kw) -> float:
    """Wall of one telemetry-mode Holmes run on an otherwise idle system."""
    from repro.core import Holmes, HolmesConfig
    from repro.experiments.common import ExperimentScale, build_system

    scale = ExperimentScale(duration_us=duration_us, seed=seed)
    system = build_system(scale)
    holmes = Holmes(system, HolmesConfig(n_reserved=scale.n_reserved),
                    **holmes_kw)
    holmes.start()
    t0 = time.perf_counter()
    system.run(until=duration_us)
    wall = time.perf_counter() - t0
    holmes.stop()
    return wall


def _pool_wall(requests: list, parallel: int, **runner_kw) -> float:
    """Wall of one pool-executor sweep over ``requests``."""
    runner = ExperimentRunner(parallel=parallel, executor="pool", **runner_kw)
    t0 = time.perf_counter()
    runner.run(requests)
    return time.perf_counter() - t0


def bench_fault_overhead(duration_us: float = 50_000.0, repeats: int = 5,
                         seed: int = 42) -> dict:
    """Cost of the fault-injection hook points when no fault fires.

    Two identical telemetry-mode Holmes runs on an otherwise idle system:
    one without the fault engine, one with an *empty* :class:`FaultPlan`
    injector attached (every hook installed, nothing ever injected, plus
    the watchdog the chaos path arms).  Both arms do the same scheduling
    work, so the wall-clock ratio isolates the hook overhead.
    """
    from repro.faults import FaultInjector, FaultPlan

    def one(hooked: bool) -> float:
        injector = (
            FaultInjector(FaultPlan(seed=0, specs=()), scope="bench")
            if hooked
            else None
        )
        return _holmes_wall(duration_us, seed, faults=injector)

    best = _ab((False, True), one, repeats)
    return {
        "duration_us": duration_us,
        "repeats": repeats,
        "plain_wall_s": best[False],
        "hooked_wall_s": best[True],
        "overhead_ratio": _ratio(best[True], best[False]),
    }


def bench_resilience_overhead(quick: bool = False, seed: int = 42,
                              parallel: int = 2) -> dict:
    """Cost of the resilience layer when nothing ever fails.

    Two identical pool-executor sweeps over short co-location cells:
    *plain* (no chaos wrapper, no journal, the default retry wiring) and
    *resilient* (an explicit :class:`RetryPolicy`, an *empty* transport
    chaos plan wrapped around the executor -- every per-task decision
    channel drawn, nothing ever fires -- and the crash-safe journal
    fsyncing one record per plan/done event).  Both arms compute the
    same cells, so the wall ratio isolates what the resilience plumbing
    costs a healthy sweep.
    """
    from repro.faults import FaultPlan
    from repro.runner.resilience import RetryPolicy

    # full mode runs longer cells so the fixed per-record fsync cost is
    # amortised the way a real sweep amortises it; quick mode keeps the
    # CI gate cheap.
    duration_us = 4_000.0 if quick else 8_000.0
    n_cells = 6 if quick else 10
    repeats = 2 if quick else 3
    requests = [_colo(duration_us, seed + i) for i in range(n_cells)]
    # an empty plan still routes every submit through the chaos wrapper's
    # decision channels: the measured cost is the hook points, not faults.
    empty_plan = FaultPlan(seed=0, specs=()).to_json()

    with tempfile.TemporaryDirectory(prefix="repro-resilience-") as tmp:
        journal = os.path.join(tmp, "journal.jsonl")

        def one(resilient: bool) -> float:
            if not resilient:
                return _pool_wall(requests, parallel)
            return _pool_wall(requests, parallel, retry_policy=RetryPolicy(),
                              chaos_plan=empty_plan, journal=journal)

        _ab((False, True), one, 1)  # warm imports and pool spawn
        best = _ab((False, True), one, repeats)
    return {
        "duration_us": duration_us,
        "n_cells": n_cells,
        "parallel": parallel,
        "repeats": repeats,
        "plain_wall_s": best[False],
        "resilient_wall_s": best[True],
        "overhead_ratio": _ratio(best[True], best[False]),
    }


def bench_obs_overhead(duration_us: float = 50_000.0, repeats: int = 5,
                       seed: int = 42) -> dict:
    """Cost of the observability plane on the Holmes hot loop.

    Three identical telemetry-mode Holmes runs: *plain* (``obs=None``,
    one is-not-None check per hook point), *disabled* (a plane built
    from the ``"none"`` spec attached — every hook point live, every
    category gated off, so each costs one precomputed-bool branch), and
    *enabled* (the ``"all"`` spec — events and metrics actually
    recorded).
    """
    from repro.obs import ObservabilityPlane

    def one(spec: Optional[str]) -> float:
        plane = ObservabilityPlane.from_spec(spec)
        obs = plane.for_node("bench") if plane is not None else None
        return _holmes_wall(duration_us, seed, obs=obs)

    best = _ab((None, "none", "all"), one, repeats)
    return {
        "duration_us": duration_us,
        "repeats": repeats,
        "plain_wall_s": best[None],
        "disabled_wall_s": best["none"],
        "enabled_wall_s": best["all"],
        "disabled_ratio": _ratio(best["none"], best[None]),
        "enabled_ratio": _ratio(best["all"], best[None]),
    }


def bench_runner_obs_overhead(quick: bool = False, seed: int = 42,
                              parallel: int = 2) -> dict:
    """Cost of the runner telemetry plane (wall-clock spans + metrics).

    Three identical pool-executor sweeps over short co-location cells:
    *plain* (``telemetry=None`` -- one is-not-None check per
    instrumentation point), *disabled* (a
    :class:`~repro.obs.runner.RunnerTelemetry` built with
    ``enabled=False`` attached -- the runner coerces it to None, so
    this arm proves the coercion leaves no residue), and *enabled*
    (spans, per-iteration queue sampling, and worker-side compute spans
    all recorded).  Only the disabled ratio is gated.
    """
    from repro.obs.runner import RunnerTelemetry

    duration_us = 4_000.0 if quick else 8_000.0
    n_cells = 6 if quick else 10
    repeats = 2 if quick else 3
    requests = [_colo(duration_us, seed + i) for i in range(n_cells)]

    def one(arm: str) -> float:
        telemetry = (
            None if arm == "plain"
            else RunnerTelemetry(enabled=arm == "enabled")
        )
        return _pool_wall(requests, parallel, telemetry=telemetry)

    arms = ("plain", "disabled", "enabled")
    _ab(arms, one, 1)  # warm pools and imports outside the timing
    best = _ab(arms, one, repeats)
    return {
        "duration_us": duration_us,
        "n_cells": n_cells,
        "parallel": parallel,
        "repeats": repeats,
        "plain_wall_s": best["plain"],
        "disabled_wall_s": best["disabled"],
        "enabled_wall_s": best["enabled"],
        "disabled_ratio": _ratio(best["disabled"], best["plain"]),
        "enabled_ratio": _ratio(best["enabled"], best["plain"]),
    }


def bench_profiling(quick: bool = False, seed: int = 42) -> dict:
    """Cost of the offline profiling stage and the online predictor.

    * ``wall_per_probe_run_s`` -- wall-clock of one full
      :func:`~repro.profiling.stage.run_profile_stage` divided by the
      number of simulated probe runs it performs, so the gate tracks
      per-probe cost rather than matrix size (adding a workload to the
      seed matrix must not trip it).
    * ``pair_eval_per_s`` -- throughput of the fitted model's
      ``predict_excess`` over the profile pairs, i.e. the per-decision
      cost the predictor policy adds to the scheduler hot path.
    """
    from repro.profiling import load_stage, run_profile_stage

    iterations = 12 if quick else 24
    t0 = time.perf_counter()
    payload = run_profile_stage(seed=seed, iterations=iterations)
    wall = time.perf_counter() - t0

    n_targets = len(payload["targets"])
    n_pairs = len(payload["pairs"])
    duties = payload["probe"]["duties"]
    # per target: 1 solo + len(duties) mem-sensitivity + 1 cpu-
    # sensitivity + 2 pressure runs; plus 1 sim run per measured pair
    # and 2 victim calibration runs.
    probe_runs = n_targets * (4 + len(duties)) + n_pairs + 2

    profiles, model = load_stage(payload)
    pair_list = [
        (a, b)
        for i, a in enumerate(profiles.values())
        for b in list(profiles.values())[i:]
    ]
    sweeps = 200 if quick else 1_000
    t0 = time.perf_counter()
    for _ in range(sweeps):
        for a, b in pair_list:
            model.predict_excess(a, b)
    eval_wall = time.perf_counter() - t0
    n_evals = sweeps * len(pair_list)
    return {
        "seed": seed,
        "iterations": iterations,
        "n_targets": n_targets,
        "n_pairs": n_pairs,
        "probe_runs": probe_runs,
        "stage_wall_s": wall,
        "wall_per_probe_run_s": wall / probe_runs if probe_runs else None,
        "pair_evals": n_evals,
        "pair_eval_per_s": n_evals / eval_wall if eval_wall > 0 else None,
    }


def bench_sweep(duration_us: float = BENCH_DURATION_US,
                seed: int = 42) -> list[ExperimentRequest]:
    """The 4-experiment sweep: four figures over one co-location triple."""
    params = {"service": "redis", "workload": "a", "duration_us": duration_us}
    return [
        ExperimentRequest.make(name, params, seed)
        for name in ("compare", "latency", "slo", "throughput")
    ]


def identity_failures(record: dict) -> list[str]:
    """``section.path`` of every identity flag in ``record`` that is false."""
    failed = []
    for section, path in IDENTITY_FLAGS:
        value = record.get(section)
        if value is None:
            continue
        for key in path.split("."):
            value = value[key]
        if not value:
            failed.append(f"{section}.{path}")
    return failed


def run_bench(
    parallel: int = 4,
    duration_us: float = BENCH_DURATION_US,
    seed: int = 42,
    cache_dir: Optional[str] = None,
    output: str | pathlib.Path = "BENCH_runner.json",
    quick: bool = False,
    kernel: bool = True,
    cluster: bool = True,
    dispatch: bool = True,
) -> dict:
    """Run the bench and write ``BENCH_runner.json``; returns the record.

    ``kernel``/``cluster``/``dispatch`` gate the ``event_loop`` +
    ``kernel``, ``cluster_rate`` and ``dispatch_core`` sections (the CI
    smoke job runs with all three off: it only needs the
    serial-vs-parallel equivalence check).
    """
    requests = bench_sweep(duration_us, seed)

    serial = ExperimentRunner(cache=None, parallel=1, dedupe=False).run(requests)

    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
        cache_root = tmp.name
    else:
        tmp = None
        cache_root = cache_dir
    try:
        cache = ResultCache(cache_root)
        par = ExperimentRunner(cache=cache, parallel=parallel,
                               dedupe=True).run(requests)
    finally:
        if tmp is not None:
            tmp.cleanup()

    identical = serial.merged_bytes() == par.merged_bytes()
    record = {
        "sweep": {
            "experiments": [r.experiment_id for r in requests],
            "duration_us": duration_us,
            "seed": seed,
            "serial_wall_s": serial.wall_s,
            "parallel_wall_s": par.wall_s,
            "speedup": (
                serial.wall_s / par.wall_s if par.wall_s > 0 else None
            ),
            "serial_cell_runs": serial.n_cell_runs,
            "parallel_cell_runs": par.n_cell_runs,
            "parallel": parallel,
            "identical_merged_results": identical,
            "cache": par.cache_stats,
        },
    }
    record["fault_overhead"] = bench_fault_overhead(
        duration_us=20_000.0 if quick else 50_000.0,
        repeats=3 if quick else 5,
        seed=seed,
    )
    record["obs_overhead"] = bench_obs_overhead(
        duration_us=20_000.0 if quick else 50_000.0,
        repeats=3 if quick else 5,
        seed=seed,
    )
    record["resilience_overhead"] = bench_resilience_overhead(
        quick=quick, seed=seed
    )
    record["runner_obs_overhead"] = bench_runner_obs_overhead(
        quick=quick, seed=seed
    )
    record["profiling"] = bench_profiling(quick=quick, seed=seed)
    if kernel:
        record["event_loop"], record["kernel"] = bench_kernel(quick)
    if cluster:
        record["cluster_rate"] = bench_cluster_rate(quick, seed=seed)
    if dispatch:
        record["dispatch_core"] = bench_dispatch_core(quick=quick, seed=seed)
    path = pathlib.Path(output)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record
