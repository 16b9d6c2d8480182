"""Tests for the execution-tracing subsystem."""

import tracemalloc

import numpy as np
import pytest

from repro.hw import CompOp, HWConfig, MemOp
from repro.oskernel import System
from repro.tracing import ExecutionTracer, gantt, occupancy, sibling_overlap


def small_system():
    return System(config=HWConfig(sockets=1, cores_per_socket=8))


def mem_body(thread, until):
    while thread.env.now < until:
        yield from thread.exec(MemOp(lines=1000, dram_frac=0.8))


def comp_body(thread, until):
    while thread.env.now < until:
        yield from thread.exec(CompOp(cycles=120_000))


def test_tracer_records_quanta():
    system = small_system()
    tracer = ExecutionTracer(system)
    tracer.attach()
    proc = system.spawn_process("p")
    proc.spawn_thread(lambda th: mem_body(th, 1_000), affinity={0})
    system.run(until=2_000)
    tracer.detach()
    recs = tracer.records(lcpu=0)
    assert recs
    assert all(r.kind == "mem" for r in recs)
    assert all(r.duration > 0 for r in recs)
    # quanta tile the busy period without overlap
    recs.sort(key=lambda r: r.start)
    for a, b in zip(recs, recs[1:]):
        assert b.start >= a.end - 1e-9


def test_tracer_busy_time_matches_server_accounting():
    system = small_system()
    tracer = ExecutionTracer(system)
    tracer.attach()
    proc = system.spawn_process("p")
    proc.spawn_thread(lambda th: comp_body(th, 5_000), affinity={2})
    system.run(until=6_000)
    assert tracer.busy_time(2) == pytest.approx(system.server.busy_us[2])
    assert tracer.busy_time(3) == 0.0


def test_tracer_single_hook_enforced():
    system = small_system()
    t1 = ExecutionTracer(system)
    t1.attach()
    t2 = ExecutionTracer(system)
    with pytest.raises(RuntimeError):
        t2.attach()
    t1.detach()
    t2.attach()  # fine now


def test_tracer_attach_idempotent():
    """Re-attaching an attached tracer is a no-op: no double hook, no
    buffer clobber.  Regression: attach/detach used to compare the hook
    with ``is`` against a fresh bound method, so detach silently left
    the hook installed."""
    system = small_system()
    tracer = ExecutionTracer(system)
    tracer.attach()
    proc = system.spawn_process("p")
    proc.spawn_thread(lambda th: comp_body(th, 1_000), affinity={0})
    system.run(until=1_500)
    n = len(tracer)
    assert n > 0
    tracer.attach()  # no-op: already this tracer's hook
    assert len(tracer) == n  # buffers untouched
    system.run(until=3_000)
    assert len(tracer) == n  # thread finished; no double-record either
    tracer.detach()
    assert system.quantum_hook is None
    tracer.detach()  # idempotent
    assert system.quantum_hook is None


def test_tracer_detach_spares_other_tracers_hook():
    """A stale detach must not clobber a hook installed afterwards."""
    system = small_system()
    t1 = ExecutionTracer(system)
    t1.attach()
    t1.detach()
    t2 = ExecutionTracer(system)
    t2.attach()
    t1.detach()  # stale: t1 is already detached
    assert system.quantum_hook is not None  # t2's hook survives
    with pytest.raises(RuntimeError):
        t1.attach()  # t2 holds the hook


def test_tracer_caps_records():
    system = small_system()
    tracer = ExecutionTracer(system, max_records=10)
    tracer.attach()
    proc = system.spawn_process("p")
    proc.spawn_thread(lambda th: comp_body(th, 10_000), affinity={0})
    system.run(until=11_000)
    assert len(tracer) == 10
    assert tracer.dropped > 0


def test_occupancy_from_trace():
    system = small_system()
    tracer = ExecutionTracer(system)
    tracer.attach()
    proc = system.spawn_process("p")
    proc.spawn_thread(lambda th: comp_body(th, 2_000), affinity={1})
    system.run(until=4_000)
    occ = occupancy(tracer, 0.0, 4_000.0)
    assert occ[1] == pytest.approx(0.5, abs=0.05)
    with pytest.raises(ValueError):
        occupancy(tracer, 10.0, 10.0)


def test_sibling_overlap_detects_concurrent_mem():
    system = small_system()
    sib = system.server.topology.sibling(0)
    tracer = ExecutionTracer(system)
    tracer.attach()
    proc = system.spawn_process("p")
    proc.spawn_thread(lambda th: mem_body(th, 3_000), affinity={0})
    proc.spawn_thread(lambda th: mem_body(th, 3_000), affinity={sib})
    system.run(until=4_000)
    # both streams run ~continuously: overlap ~= 1.0
    assert sibling_overlap(tracer, system, 0) > 0.9
    # a non-sibling pair records no overlap through this lens
    assert sibling_overlap(tracer, system, 1) == 0.0


def test_sibling_overlap_zero_when_exclusive():
    """Alternating (never-concurrent) siblings measure ~zero overlap."""
    system = small_system()
    sib = system.server.topology.sibling(0)
    tracer = ExecutionTracer(system)
    tracer.attach()

    def ping(thread):
        for _ in range(10):
            yield from thread.exec(MemOp(lines=500, dram_frac=0.8))
            yield from thread.sleep(100.0)

    def pong(thread):
        yield from thread.sleep(50.0)
        for _ in range(10):
            yield from thread.exec(MemOp(lines=300, dram_frac=0.8))
            yield from thread.sleep(120.0)

    proc = system.spawn_process("p")
    proc.spawn_thread(ping, affinity={0})
    proc.spawn_thread(pong, affinity={sib})
    system.run()
    ov = sibling_overlap(tracer, system, 0)
    assert ov < 0.6  # mostly exclusive (they do collide occasionally)


def test_gantt_rendering():
    system = small_system()
    tracer = ExecutionTracer(system)
    tracer.attach()
    proc = system.spawn_process("p")
    proc.spawn_thread(lambda th: mem_body(th, 1_000), affinity={0})
    proc.spawn_thread(lambda th: comp_body(th, 1_000), affinity={1})
    system.run(until=2_000)
    out = gantt(tracer, lcpus=[0, 1, 2], width=40)
    lines = out.splitlines()
    assert lines[0].startswith("lcpu  0")
    assert "M" in lines[0] or "m" in lines[0]
    assert "C" in lines[1] or "c" in lines[1]
    assert set(lines[2].split("|")[1]) == {"."}  # lcpu 2 idle


def test_gantt_empty():
    system = small_system()
    tracer = ExecutionTracer(system)
    assert gantt(tracer, lcpus=[0]) == "(empty trace)"


def test_occupancy_empty_trace():
    """A tracer that never saw a quantum reports no per-CPU rows."""
    system = small_system()
    tracer = ExecutionTracer(system)
    assert occupancy(tracer, 0.0, 1_000.0) == {}


def test_occupancy_epsilon_window():
    """A vanishingly thin window inside one quantum: the busy fraction
    is exact (1.0 inside a quantum, 0.0 outside), not NaN or inf."""
    system = small_system()
    tracer = ExecutionTracer(system)
    tracer.attach()
    proc = system.spawn_process("p")
    proc.spawn_thread(lambda th: comp_body(th, 2_000), affinity={0})
    system.run(until=3_000)
    recs = tracer.records(lcpu=0)
    mid = recs[0].start + recs[0].duration / 2
    eps = 1e-9
    occ = occupancy(tracer, mid, mid + eps)
    assert occ[0] == pytest.approx(1.0)
    # the same epsilon window long after everything finished
    occ = occupancy(tracer, 50_000.0, 50_000.0 + eps)
    assert occ[0] == 0.0
    # t1 == t0 exactly is still rejected
    with pytest.raises(ValueError):
        occupancy(tracer, mid, mid)


def test_gantt_single_quantum_window():
    """Default bounds collapse to one quantum's extent and still render
    a full-width row."""
    system = small_system()
    tracer = ExecutionTracer(system)
    tracer.attach()
    proc = system.spawn_process("p")

    def one_op(thread):
        yield from thread.exec(CompOp(cycles=50_000))

    proc.spawn_thread(one_op, affinity={0})
    system.run(until=10_000)
    assert len(tracer) == 1
    out = gantt(tracer, lcpus=[0], width=20)
    row = out.splitlines()[0].split("|")[1]
    assert len(row) == 20
    assert set(row) <= {"C", "c"}  # fully busy, no idle cells


def test_gantt_degenerate_window():
    """An explicit empty/inverted window renders the sentinel, not a
    divide-by-zero."""
    system = small_system()
    tracer = ExecutionTracer(system)
    tracer.attach()
    proc = system.spawn_process("p")
    proc.spawn_thread(lambda th: comp_body(th, 500), affinity={0})
    system.run(until=1_000)
    assert gantt(tracer, lcpus=[0], t0=100.0, t1=100.0) == "(empty window)"
    assert gantt(tracer, lcpus=[0], t0=200.0, t1=100.0) == "(empty window)"


def test_gantt_with_gaps():
    """Idle gaps between quanta render as '.' cells between busy runs."""
    system = small_system()
    tracer = ExecutionTracer(system)
    tracer.attach()
    proc = system.spawn_process("p")

    def burst_sleep_burst(thread):
        yield from thread.exec(CompOp(cycles=100_000))
        yield from thread.sleep(2_000.0)
        yield from thread.exec(CompOp(cycles=100_000))

    proc.spawn_thread(burst_sleep_burst, affinity={0})
    system.run(until=10_000)
    out = gantt(tracer, lcpus=[0], width=40)
    row = out.splitlines()[0].split("|")[1]
    assert "." in row  # the sleep gap
    busy = [i for i, ch in enumerate(row) if ch in "Cc"]
    idle_between = [
        i for i in range(busy[0], busy[-1]) if row[i] == "."
    ]
    assert idle_between  # gap sits between the two bursts


#: (lcpu, tid, kind, start, duration) quanta fed straight to the hook.
QUANTA = [
    (0, 7, "mem", 0.0, 2.5),
    (1, 8, "comp", 1.0, 4.0),
    (0, 7, "comp", 2.5, 1.25),
    (3, 9, "mem", 6.0, 0.5),
]


def _fed_tracer(quanta=QUANTA, **kwargs):
    tracer = ExecutionTracer(small_system(), **kwargs)
    for q in quanta:
        tracer._record(*q)
    return tracer


def test_tracer_records_round_trip_kinds_and_filters():
    tracer = _fed_tracer()
    recs = tracer.records()
    assert [(r.lcpu, r.tid, r.kind, r.start, r.duration) for r in recs] == QUANTA
    assert {r.kind for r in recs} == {"mem", "comp"}
    assert all(type(r.lcpu) is int and type(r.tid) is int for r in recs)
    assert [r.start for r in tracer.records(lcpu=0)] == [0.0, 2.5]
    assert [r.lcpu for r in tracer.records(tid=8)] == [1]
    assert [r.start for r in tracer.records(t0=1.0, t1=6.0)] == [1.0, 2.5]


def test_tracer_arrays_and_lists_are_copies_of_the_columns():
    tracer = _fed_tracer()
    a = tracer.arrays()
    assert a["lcpu"].dtype == np.int64 and a["tid"].dtype == np.int64
    assert a["is_mem"].dtype == bool
    assert a["start"].dtype == np.float64 and a["duration"].dtype == np.float64
    assert a["is_mem"].tolist() == [True, False, False, True]
    cols = tracer.lists()
    assert cols == {
        "lcpu": [0, 1, 0, 3],
        "tid": [7, 8, 7, 9],
        "is_mem": [True, False, False, True],
        "start": [0.0, 1.0, 2.5, 6.0],
        "duration": [2.5, 4.0, 1.25, 0.5],
    }
    assert {type(v) for v in cols["is_mem"]} == {bool}
    assert {type(v) for v in cols["start"] + cols["duration"]} == {float}
    # a held export does not pin the columns
    tracer._record(2, 10, "comp", 7.0, 1.0)
    assert len(a["lcpu"]) == 4 and len(tracer) == 5
    assert tracer.busy_time(0) == 3.75
    assert tracer.busy_time(2) == 1.0
    assert tracer.busy_time(5) == 0.0


def test_tracer_drop_count_past_max_records():
    tracer = _fed_tracer(QUANTA * 6, max_records=10)
    assert len(tracer) == 10
    assert tracer.dropped == 14
    assert len(tracer.records()) == 10


def test_tracer_holds_at_most_48_bytes_per_quantum():
    n = 10_000
    tracer = ExecutionTracer(small_system())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            tracer._record(i % 32, 1000 + i % 7, "mem" if i & 1 else "comp",
                           i * 5.0, 1.0 + (i % 13) * 0.25)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(tracer) == n
    assert held / n <= 48, f"{held / n:.1f} B per quantum"
