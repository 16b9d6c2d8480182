"""LatencyRecorder: typed columns, copying accessors, finite latencies."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.workloads.base import LatencyRecorder, QueryRecord


def test_held_latencies_survive_later_records():
    """The accessors return copies: holding one while recording more
    must neither raise BufferError nor alias the recorder."""
    rec = LatencyRecorder()
    rec.record(0.0, 10.0, op="read")
    lat = rec.latencies()
    sub = rec.submit_times()
    for i in range(1, 100):  # enough appends to force a column resize
        rec.record(float(i), 20.0, op="read")
    lat[0] = -1.0
    sub[0] = -1.0
    assert rec.latencies()[0] == 10.0
    assert rec.submit_times()[0] == 0.0
    assert lat.shape == (1,) and len(rec) == 100


def test_numpy_scalars_record_the_same_value():
    plain, boxed = LatencyRecorder(), LatencyRecorder()
    plain.record(3.5, 42.25, op="read")
    plain.record(7.0, 9.0, op="update")
    boxed.record(np.float64(3.5), np.float64(42.25), op="read")
    boxed.record(np.int64(7), np.int64(9), op="update")
    assert boxed.records() == plain.records()
    assert boxed.latencies().tolist() == [42.25, 9.0]
    assert boxed.submit_times().tolist() == [3.5, 7.0]
    assert boxed.latencies().dtype == np.float64


def test_records_and_per_op_views():
    rec = LatencyRecorder("svc")
    rec.record(1.0, 5.0, op="read")
    rec.record(2.0, 7.0, op="scan")
    rec.record(3.0, 9.0, op="read")
    assert rec.records() == [
        QueryRecord(1.0, 5.0, "read"),
        QueryRecord(2.0, 7.0, "scan"),
        QueryRecord(3.0, 9.0, "read"),
    ]
    assert rec.latencies("read").tolist() == [5.0, 9.0]
    assert rec.latencies("insert").size == 0
    assert rec.mean() == 7.0
    assert rec.slo_violation_ratio(6.0) == pytest.approx(2 / 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-9, np.nan])
def test_non_finite_or_negative_latency_is_rejected(bad):
    rec = LatencyRecorder()
    with pytest.raises(ValueError):
        rec.record(0.0, bad)
    assert len(rec) == 0
    assert rec.records() == []


def test_zero_latency_is_accepted():
    rec = LatencyRecorder()
    rec.record(0.0, 0.0)
    assert rec.latencies().tolist() == [0.0]


def test_recorder_holds_at_most_32_bytes_per_record():
    n = 10_000
    ops = ("read", "update")
    tracemalloc.start()
    try:
        rec = LatencyRecorder()
        base = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            rec.record(i * 10.0, 40.0 + (i % 97) * 0.5, op=ops[i & 1])
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(rec) == n
    assert held / n <= 32, f"{held / n:.1f} B per record"
