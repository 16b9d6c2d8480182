"""The benchmark's workloads: one op each, its checks and its outputs.

Every op is one call into the program's public API with the workload
seed as the cell/sweep seed (and, for ``colo-chaos-obs``, the fault-plan
seed); nothing else about the inputs comes from the benchmark.  Ops run
in a closed loop with one client: the next op starts only after the
previous one has returned and been checked.

``SIZES["smoke"]`` shrinks every op to well under a second for the
benchmark's own tests; the ledger itself always uses ``"full"``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time

import layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: per-workload op sizes.  ``full`` is what BENCHMARK.json measures.
SIZES = {
    "full": {
        "colo-redis": {"duration_us": 400_000.0},
        "cluster-100": {"n_nodes": 100, "n_jobs": 80, "duration_us": 100_000.0},
        "shard-1000-socket": {
            "n_nodes": 1000,
            "n_jobs": 300,
            "shards": 8,
            "duration_us": 8_000.0,
        },
        "colo-chaos-obs": {"duration_us": 200_000.0},
    },
    "smoke": {
        "colo-redis": {"duration_us": 20_000.0},
        "cluster-100": {"n_nodes": 8, "n_jobs": 8, "duration_us": 10_000.0},
        "shard-1000-socket": {
            "n_nodes": 40,
            "n_jobs": 12,
            "shards": 4,
            "duration_us": 2_000.0,
        },
        "colo-chaos-obs": {"duration_us": 20_000.0},
    },
}

#: worker processes of the socket runner.
PARALLEL = 2


def _plain(obj):
    """JSON fallback for numpy scalars and arrays inside payloads."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"cannot encode {type(obj).__name__} in a payload")


def canonical_sha256(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(data.encode()).hexdigest()


def _finite_positive(values) -> bool:
    return all(v is not None and math.isfinite(v) and v > 0 for v in values)


class Workload:
    """One op of the ledger plus what the benchmark checks about it."""

    name = ""
    #: worker subprocesses the op starts (counted in peak_rss_mb).
    workers = 0

    def __init__(self, size: dict):
        self.size = dict(size)

    @property
    def node_ms(self) -> float:
        """Simulated node-milliseconds one op covers."""
        return self.size.get("n_nodes", 1) * self.size["duration_us"] / 1e3

    def op(self, seed: int):
        raise NotImplementedError

    def digest(self, raw) -> str:
        raise NotImplementedError

    def check(self, raw) -> list[str]:
        """Sanity invariants; each broken one is one message."""
        raise NotImplementedError

    def sim_metrics(self, raw) -> dict:
        """The simulated outputs; None where the workload has no such figure."""
        raise NotImplementedError

    def compute_s(self, raw) -> float:
        """Σ cell compute seconds reported by the runner (0 without one)."""
        return 0.0

    def reference_digest(self, seed: int):
        """Digest of an independent untimed run, or None when there is none."""
        return None

    def traced(self, seed: int, out_dir: str):
        """Run the op under the layer tracer; return (raw, summary)."""
        with layers.LayerTracer() as tracer:
            raw = self.op(seed)
        summary = tracer.summary()
        summary["runner"] = {}
        return raw, summary


class Colocation(Workload):
    """``run_colocation("redis", "a", "holmes")`` on one node."""

    def __init__(self, size: dict, name: str, chaos: bool):
        super().__init__(size)
        self.name = name
        self.chaos = chaos

    def op(self, seed: int):
        from repro.experiments.colocation import run_colocation
        from repro.experiments.common import ExperimentScale

        kwargs = {}
        if self.chaos:
            kwargs = {"faults": chaos_plan(seed), "obs": "all"}
        scale = ExperimentScale(duration_us=self.size["duration_us"], seed=seed)
        return run_colocation("redis", "a", "holmes", scale=scale, **kwargs)

    def digest(self, raw) -> str:
        return canonical_sha256(
            {
                "service": raw.service,
                "workload": raw.workload,
                "setting": raw.setting,
                "duration_us": raw.duration_us,
                "submitted": raw.submitted,
                "avg_cpu_utilization": raw.avg_cpu_utilization,
                "jobs_completed": raw.jobs_completed,
                "latency": hashlib.sha256(
                    raw.recorder.latencies().tobytes()
                ).hexdigest(),
                "vpi": hashlib.sha256(
                    raw.vpi_times.tobytes() + raw.vpi_values.tobytes()
                ).hexdigest(),
                "holmes_overhead": raw.holmes_overhead,
                "holmes_health": raw.holmes_health,
                "obs": raw.obs,
            }
        )

    def check(self, raw) -> list[str]:
        lat = raw.recorder.latencies()
        problems = []
        if lat.size == 0:
            problems.append("no queries completed")
        elif not _finite_positive(lat.tolist()):
            problems.append("a latency is not finite and positive")
        if not 0.0 <= raw.avg_cpu_utilization <= 1.0:
            problems.append(f"cpu utilisation {raw.avg_cpu_utilization} not in [0, 1]")
        if self.chaos:
            injected = (raw.holmes_health or {}).get("injected", {})
            if sum(injected.values()) == 0:
                problems.append("the fault plan injected nothing")
            if not (raw.obs or {}).get("events"):
                problems.append("the observability plane recorded no events")
        return problems

    def sim_metrics(self, raw) -> dict:
        return {
            "sim_lc_mean_us": raw.mean_latency,
            "sim_lc_p99_us": raw.p99_latency,
            "sim_cpu_util": raw.avg_cpu_utilization,
            "sim_slo_violation_ratio": None,
            "sim_jobs_per_s": None,
        }


def chaos_plan(seed: int):
    """The ``repro chaos`` CLI's default fault plan, seeded by ``seed``."""
    from repro.faults import standard_chaos_plan

    return standard_chaos_plan(
        seed=seed,
        counter_error_rate=0.05,
        garbage_rate=0.02,
        tick_miss_rate=0.02,
        stall_rate=0.005,
        cgroup_error_rate=0.02,
        container_crash_period_us=30_000.0,
        node_failures=1,
        node_failure_period_us=50_000.0,
        node_downtime_us=20_000.0,
    )


def _cluster_checks(lc: dict) -> list[str]:
    problems = []
    if not lc["queries"] > 0:
        problems.append("no LC queries completed")
    if not _finite_positive([lc["mean_us"], lc["p99_us"]]):
        problems.append("an LC latency is not finite and positive")
    return problems


class ClusterSweep(Workload):
    """``run_cluster_sweep(policy="score", ...)`` called directly."""

    name = "cluster-100"

    def op(self, seed: int):
        from repro.cluster.sweep import run_cluster_sweep

        return run_cluster_sweep(
            policy="score",
            n_nodes=self.size["n_nodes"],
            n_jobs=self.size["n_jobs"],
            duration_us=self.size["duration_us"],
            seed=seed,
        )

    def digest(self, raw) -> str:
        return canonical_sha256(raw)

    def check(self, raw) -> list[str]:
        lat = raw["lc"]["latency"]
        quantiles = lat["quantiles"]
        return _cluster_checks(
            {
                "queries": lat["count"],
                "mean_us": lat["mean"],
                "p99_us": quantiles[99] if quantiles else None,
            }
        )

    def sim_metrics(self, raw) -> dict:
        return {
            "sim_lc_mean_us": raw["lc"]["latency"]["mean"],
            "sim_lc_p99_us": raw["lc"]["latency"]["quantiles"][99],
            "sim_cpu_util": None,
            "sim_slo_violation_ratio": raw["lc"]["slo_violation_ratio"],
            "sim_jobs_per_s": raw["batch"]["jobs_per_s"],
        }


class ShardedSweep(Workload):
    """The ``cluster_shard`` request through the socket runner, no cache."""

    name = "shard-1000-socket"
    workers = PARALLEL

    def request(self, seed: int):
        from repro.runner import ExperimentRequest

        params = dict(self.size, policies=("score",))
        return ExperimentRequest.make("cluster_shard", params, seed)

    def _run(self, seed: int, executor: str, **kwargs):
        from repro.runner import ExperimentRunner

        runner = ExperimentRunner(executor=executor, parallel=PARALLEL, **kwargs)
        return runner.run([self.request(seed)])

    def op(self, seed: int):
        return self._run(seed, "socket")

    def digest(self, raw) -> str:
        return hashlib.sha256(raw.merged_bytes()).hexdigest()

    def reference_digest(self, seed: int) -> str:
        return self.digest(self._run(seed, "inprocess"))

    def _merged(self, raw) -> dict:
        (experiment,) = raw.experiments.values()
        return experiment["score"]

    def check(self, raw) -> list[str]:
        merged = self._merged(raw)
        lc = merged["lc"]
        problems = _cluster_checks(
            {
                "queries": lc["queries"],
                "mean_us": lc["mean_us"],
                "p99_us": lc["worst_shard_p99_us"],
            }
        )
        if merged["shards"] != self.size["shards"]:
            problems.append(f"merged {merged['shards']} shards")
        return problems

    def sim_metrics(self, raw) -> dict:
        merged = self._merged(raw)
        return {
            "sim_lc_mean_us": merged["lc"]["mean_us"],
            "sim_lc_p99_us": merged["lc"]["worst_shard_p99_us"],
            "sim_cpu_util": None,
            "sim_slo_violation_ratio": merged["lc"]["slo_violation_ratio"],
            "sim_jobs_per_s": merged["batch"]["jobs_per_s"],
        }

    def compute_s(self, raw) -> float:
        return sum(raw.timings.values())

    def traced(self, seed: int, out_dir: str):
        from repro.obs.runner import RunnerTelemetry

        worker_dir = os.path.join(out_dir, f"workers-{os.getpid()}")
        shutil.rmtree(worker_dir, ignore_errors=True)
        os.makedirs(worker_dir)
        hook_dir = os.path.join(BENCH_DIR, "worker_hook")
        saved = {k: os.environ.get(k) for k in ("PYTHONPATH", layers.TRACE_DIR_ENV)}
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (hook_dir, saved["PYTHONPATH"]) if p
        )
        os.environ[layers.TRACE_DIR_ENV] = worker_dir
        telemetry = RunnerTelemetry()
        # the parent mostly waits on its workers: profile its CPU time,
        # so the wait does not show up as self time.
        parent = layers.LayerTracer(timer=time.process_time)
        try:
            with parent as tracer, layers.FrameProbe() as frames:
                raw = self._run(seed, "socket", telemetry=telemetry)
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        workers = layers.fold_worker_records(layers.read_worker_records(worker_dir))
        shutil.rmtree(worker_dir)

        summary = tracer.summary()
        for name, n in workers["counts"].items():
            summary["counts"][name] += n
        summary["counts"].update(frames.counts)
        for layer, secs in workers["self_s"].items():
            summary["self_s"][layer] += secs
        # the parent simulates nothing; the phases are the cells' own.
        summary["phases"] = workers["phases"]
        snapshot = raw.telemetry
        summary["counts"].update(runner_counts(snapshot))
        summary["runner"] = runner_spans(snapshot)
        summary["telemetry"] = snapshot
        return raw, summary


def runner_counts(snapshot: dict) -> dict:
    """Respawns and retries from a :class:`RunnerTelemetry` snapshot."""
    retries = sum(
        m["value"]
        for key, m in snapshot["metrics"].items()
        if key.split("{")[0] == "retries"
    )
    respawns = sum(1 for s in snapshot["spans"] if s["name"] == "respawn")
    return {"runner.respawns": respawns, "runner.retries": retries}


def runner_spans(snapshot: dict) -> dict:
    """Handshake, queue-wait and speculation figures from the spans."""
    spans = snapshot["spans"]
    sweep_t0 = min(s["t0"] for s in spans if s["name"] == "sweep")
    attempts = [s for s in spans if s["name"] == "cell_attempt"]
    clones = sum(1 for s in attempts if s["args"].get("clone"))
    wins = snapshot["metrics"].get("speculation_wins", {}).get("value", 0)
    return {
        "runner.handshake_s": sum(
            s["t1"] - s["t0"] for s in spans if s["name"] == "handshake"
        ),
        "runner.wait_s": sum(
            s["t0"] - sweep_t0 for s in attempts if not s["args"].get("clone")
        ),
        "runner.spec_waste": (clones - wins) / clones if clones else 0.0,
    }


def make(name: str, size: str = "full") -> Workload:
    spec = SIZES[size][name]
    if name == "colo-redis":
        return Colocation(spec, name, chaos=False)
    if name == "colo-chaos-obs":
        return Colocation(spec, name, chaos=True)
    if name == "cluster-100":
        return ClusterSweep(spec)
    return ShardedSweep(spec)


NAMES = tuple(SIZES["full"])
