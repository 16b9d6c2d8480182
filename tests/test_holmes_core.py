"""Unit and integration tests for the Holmes daemon (repro.core)."""

import pytest

from repro.core import Holmes, HolmesConfig
from repro.hw import CompOp, HWConfig, MemOp
from repro.oskernel import System
from repro.workloads.batch import BatchJobSpec
from repro.yarnlike import NodeManager


def small_system():
    return System(config=HWConfig(sockets=1, cores_per_socket=8))


HEAVY_MEM_JOB = BatchJobSpec(
    name="membeast", iterations=100_000, mem_lines=8000,
    mem_dram_frac=0.9, comp_cycles=100_000,
)


def service_like_body(thread, until_us):
    """A service-ish loop: mostly-cached memory ops with some compute."""
    env = thread.env
    while env.now < until_us:
        yield from thread.exec(MemOp(lines=1200, dram_frac=0.15))
        yield from thread.exec(CompOp(cycles=8_000))


# -- configuration -----------------------------------------------------------


def test_config_defaults_match_paper():
    cfg = HolmesConfig()
    assert cfg.interval_us == 50.0
    assert cfg.n_reserved == 4
    assert cfg.e_threshold == 40.0
    assert cfg.t_expand == 0.8


def test_config_validation():
    with pytest.raises(ValueError):
        HolmesConfig(interval_us=0)
    with pytest.raises(ValueError):
        HolmesConfig(t_expand=1.5)
    with pytest.raises(ValueError):
        HolmesConfig(e_threshold=-1)
    with pytest.raises(ValueError):
        HolmesConfig(serving_on_usage=0.01, serving_off_usage=0.05)


def test_reserved_resolution():
    cfg = HolmesConfig(n_reserved=4)
    assert cfg.resolve_reserved(8) == [0, 1, 2, 3]
    cfg2 = HolmesConfig(reserved_cpus=[2, 5])
    assert cfg2.resolve_reserved(8) == [2, 5]
    with pytest.raises(ValueError):
        HolmesConfig(n_reserved=20).resolve_reserved(8)


def test_reserved_siblings_rejected():
    system = small_system()
    with pytest.raises(ValueError):
        Holmes(system, HolmesConfig(reserved_cpus=[0, 8]))  # siblings


# -- monitor -------------------------------------------------------------------


def test_monitor_discovers_and_forgets_containers():
    system = small_system()
    holmes = Holmes(system)
    nm = NodeManager(system)
    tiny = BatchJobSpec(name="t", iterations=3, mem_lines=100,
                        mem_dram_frac=0.5, comp_cycles=100_000)
    job = nm.launch_job(tiny, tasks_per_container=1)
    sample = holmes.monitor.collect()
    assert len(sample.new_containers) == 1
    assert sample.new_containers[0].name == job.containers[0].container_id
    system.run()  # job finishes; NodeManager removes the cgroup
    sample = holmes.monitor.collect()
    assert len(sample.gone_containers) == 1


def test_monitor_serving_detection():
    system = small_system()
    holmes = Holmes(system)
    proc = system.spawn_process("svc")
    until = 40_000.0
    proc.spawn_thread(lambda th: service_like_body(th, until), affinity={0})
    holmes.register_lc_service(proc.pid)
    status = holmes.monitor.lc_services[proc.pid]

    serving_seen = []

    def observer(env):
        while env.now < until + 30_000:
            yield env.timeout(1_000.0)
            holmes.monitor.collect()
            serving_seen.append((env.now, status.serving))

    system.env.process(observer(system.env))
    system.run(until=until + 30_000)
    assert any(s for (_, s) in serving_seen)  # detected while busy
    assert not serving_seen[-1][1]  # idle again after the thread exits


def test_register_unknown_pid():
    system = small_system()
    holmes = Holmes(system)
    with pytest.raises(KeyError):
        holmes.register_lc_service(424242)


# -- scheduler: Algorithm 1 ------------------------------------------------------


def test_lc_service_pinned_to_reserved():
    system = small_system()
    holmes = Holmes(system)
    proc = system.spawn_process("svc")
    t = proc.spawn_thread(lambda th: service_like_body(th, 10_000),
                          affinity=set(range(16)))
    holmes.register_lc_service(proc.pid)
    assert t.affinity == frozenset(holmes.reserved_cpus)
    system.run(until=20_000)


def test_new_container_base_allocation_on_non_sibling_cpus():
    """Algorithm 1: the container's *base* CPUs avoid LC siblings (the
    scheduler may additionally loan out siblings while the LC is idle)."""
    system = small_system()
    holmes = Holmes(system)
    holmes.start()
    nm = NodeManager(system, default_cpuset=holmes.non_reserved_cpus())
    job = nm.launch_job(HEAVY_MEM_JOB, tasks_per_container=2)
    system.run(until=500.0)  # a few Holmes ticks
    info = next(iter(holmes.monitor.containers.values()))
    lc_siblings = {system.server.topology.sibling(c) for c in holmes.lc_cpus}
    assert info.cpus  # placed
    assert not (info.cpus & lc_siblings)
    # reserved CPUs are never handed to batch, loans included
    cpuset = job.containers[0].process.threads[0].affinity
    assert not (cpuset & set(holmes.reserved_cpus))


# -- scheduler: Algorithm 2 (deallocate on VPI >= E) --------------------------------


def _holmes_with_interference(s_hold_us=20_000.0, duration=60_000.0):
    """LC service on lcpu0 + a heavy-memory container granted its sibling."""
    system = small_system()
    cfg = HolmesConfig(n_reserved=4, s_hold_us=s_hold_us)
    holmes = Holmes(system, cfg)
    proc = system.spawn_process("svc")
    proc.spawn_thread(lambda th: service_like_body(th, duration), affinity={0})
    holmes.register_lc_service(proc.pid)
    holmes.start()
    nm = NodeManager(system, default_cpuset=holmes.non_reserved_cpus())
    job = nm.launch_job(HEAVY_MEM_JOB, tasks_per_container=2)
    return system, holmes, job


def test_sibling_deallocated_on_interference():
    # S = forever so the loan is not re-granted and the end state is clean
    system, holmes, job = _holmes_with_interference(s_hold_us=1e12)
    # force the batch container onto the LC sibling (lcpu 8)
    def intruder(env):
        yield env.timeout(5_000.0)
        info = next(iter(holmes.monitor.containers.values()))
        info.sibling_grants.add(8)
        info.cgroup.set_cpuset({8})
        info.cpus = set()
    system.env.process(intruder(system.env))
    system.run(until=40_000.0)
    dealloc = [e for e in holmes.scheduler.events if e.action == "dealloc_sibling"]
    assert dealloc, "no deallocation happened"
    # reaction within a handful of ticks of the intrusion
    assert dealloc[0].time < 5_000.0 + 60 * 50.0
    # and the container is off the sibling again
    info = next(iter(holmes.monitor.containers.values()))
    assert 8 not in info.cgroup.effective_cpuset()


def test_sibling_reallocated_after_s_hold():
    """Algorithm 2 lines 12-15 / Algorithm 3: siblings return to batch
    after S of calm (and stay with batch once traffic has ended)."""
    system, holmes, job = _holmes_with_interference(s_hold_us=10_000.0)
    system.run(until=200_000.0)
    realloc = [e for e in holmes.scheduler.events if e.action == "realloc_sibling"]
    assert realloc
    # traffic ended at 60 ms: by the end every LC sibling is on loan again
    granted = set()
    for info in holmes.monitor.containers.values():
        granted |= info.sibling_grants
    topo = system.server.topology
    assert granted == {topo.sibling(c) for c in holmes.lc_cpus}


def test_expansion_beyond_t():
    """Algorithm 2 lines 17-20: usage > T grows the LC CPU set."""
    system = small_system()
    cfg = HolmesConfig(n_reserved=2, t_expand=0.8)
    holmes = Holmes(system, cfg)
    proc = system.spawn_process("svc")
    # four service threads on two reserved CPUs: usage ~100% > T
    for i in range(4):
        proc.spawn_thread(lambda th: service_like_body(th, 50_000),
                          affinity={0, 1}, name=f"w{i}")
    holmes.register_lc_service(proc.pid)
    holmes.start()
    system.run(until=50_000.0)
    expands = [e for e in holmes.scheduler.events if e.action == "expand"]
    assert expands
    assert len(holmes.lc_cpus) > 2
    # expansion CPUs are never siblings of existing LC CPUs
    topo = system.server.topology
    lc = holmes.lc_cpus
    for c in lc:
        assert topo.sibling(c) not in lc


def test_contraction_after_traffic_ends():
    system = small_system()
    cfg = HolmesConfig(n_reserved=2, t_expand=0.8)
    holmes = Holmes(system, cfg)
    proc = system.spawn_process("svc")
    for i in range(4):
        proc.spawn_thread(lambda th: service_like_body(th, 30_000),
                          affinity={0, 1}, name=f"w{i}")
    holmes.register_lc_service(proc.pid)
    holmes.start()
    system.run(until=100_000.0)
    assert [e for e in holmes.scheduler.events if e.action == "expand"]
    assert [e for e in holmes.scheduler.events if e.action == "contract"]
    assert holmes.lc_cpus == holmes.reserved_cpus


# -- daemon ---------------------------------------------------------------------


def test_daemon_tick_rate():
    system = small_system()
    holmes = Holmes(system)
    holmes.start()
    system.run(until=10_000.0)
    assert holmes.ticks == pytest.approx(200, abs=2)  # 10ms / 50us


@pytest.mark.parametrize("until_us", [10_000.0, 10_500.0, 99_999.0, 100_000.0])
def test_idle_telemetry_daemon_ticks_every_interval(until_us):
    """No LC service, nothing running: the loop still ticks on every
    interval boundary."""
    system = small_system()
    holmes = Holmes(system, HolmesConfig(interval_us=1_000.0))
    holmes.start()
    system.run(until=until_us)
    assert holmes.ticks == int(until_us // 1_000.0)
    assert "skipped_idle_ticks" not in holmes.estimated_overhead()


def test_tick_coalescing_option_is_gone():
    from repro.cluster.sweep import run_cluster_sweep

    with pytest.raises(TypeError, match="coalesce_idle_ticks"):
        HolmesConfig(coalesce_idle_ticks=32)
    with pytest.raises(TypeError, match="coalesce_idle_ticks"):
        run_cluster_sweep(n_nodes=1, n_jobs=1, duration_us=1_000.0,
                          coalesce_idle_ticks=32)


def test_daemon_double_start_rejected():
    system = small_system()
    holmes = Holmes(system)
    holmes.start()
    with pytest.raises(RuntimeError):
        holmes.start()


def test_daemon_stop():
    system = small_system()
    holmes = Holmes(system)
    holmes.start()

    def stopper(env):
        yield env.timeout(5_000.0)
        holmes.stop()

    system.env.process(stopper(system.env))
    system.run(until=20_000.0)
    assert holmes.ticks <= 101


def test_overhead_estimate_in_paper_range():
    """Section 6.6: ~1.3-3% CPU, ~2 MB memory."""
    system = small_system()
    holmes = Holmes(system)
    holmes.start()
    system.run(until=20_000.0)
    ov = holmes.estimated_overhead()
    assert 0.013 <= ov["cpu_fraction"] <= 0.03
    assert ov["resident_bytes"] < 16 * 1024 * 1024
    assert ov["ticks"] > 0


def test_vpi_history_recorded():
    system = small_system()
    holmes = Holmes(system, record_vpi_every=10)
    holmes.start()
    system.run(until=20_000.0)
    assert len(holmes.vpi_history) == pytest.approx(40, abs=2)
