"""Golden pin of one observed, faulted co-location cell, byte for byte.

``tests/golden/colo_chaos_obs_seed42.sha256`` is the sha256 of the
canonical JSON of :func:`colo_payload`: a 20 ms ``run_colocation("redis",
"a", "holmes")`` at seed 42 under the ``repro chaos`` CLI's default fault
plan (seeded 42) with every observability category on.  The payload holds
every query record, the VPI timeline, the daemon's overhead and health,
and the obs snapshot (events, metrics and the quanta columns), so a change
to how the cell stores keys, latencies or quanta that moves any output
byte shows up here.  Regenerate deliberately with::

    PYTHONPATH=src python -c "
    from tests.test_colo_golden import colo_digest
    print(colo_digest())
    " > tests/golden/colo_chaos_obs_seed42.sha256
"""

from __future__ import annotations

import hashlib
import pathlib

from repro.analysis.export import canonical_dumps

GOLDEN = pathlib.Path(__file__).parent / "golden" / "colo_chaos_obs_seed42.sha256"
SEED = 42


def colo_payload(seed: int = SEED) -> dict:
    from repro.experiments.colocation import run_colocation
    from repro.experiments.common import ExperimentScale
    from repro.faults import standard_chaos_plan

    # the `repro chaos` CLI defaults, with the fault seed set to ``seed``
    plan = standard_chaos_plan(
        seed=seed,
        counter_error_rate=0.05,
        garbage_rate=0.02,
        tick_miss_rate=0.02,
        stall_rate=0.005,
        stall_duration_us=2_000.0,
        cgroup_error_rate=0.02,
        container_crash_period_us=30_000.0,
        node_failures=1,
        node_failure_period_us=50_000.0,
        node_downtime_us=20_000.0,
    )
    scale = ExperimentScale(duration_us=20_000.0, seed=seed)
    res = run_colocation("redis", "a", "holmes", scale=scale, faults=plan, obs="all")
    return {
        "submitted": res.submitted,
        "avg_cpu_utilization": res.avg_cpu_utilization,
        "jobs_completed": res.jobs_completed,
        "queries": res.recorder.records(),
        "vpi_times": res.vpi_times,
        "vpi_values": res.vpi_values,
        "holmes_overhead": res.holmes_overhead,
        "holmes_health": res.holmes_health,
        "obs": res.obs,
    }


def colo_digest(seed: int = SEED) -> str:
    return hashlib.sha256(canonical_dumps(colo_payload(seed)).encode()).hexdigest()


def test_colo_chaos_obs_matches_golden_digest():
    payload = colo_payload()
    # the pin must cover what it claims to: queries, events and quanta
    assert payload["queries"]
    assert payload["obs"]["events"]
    assert payload["obs"]["quanta"]["lcpu"]
    assert sum(payload["holmes_health"]["injected"].values()) > 0
    digest = hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()
    assert digest == GOLDEN.read_text().strip()
