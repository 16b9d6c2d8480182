"""The in-memory stores' implicit keyspace against a plain-dict model.

Redis and Memcached keep their preloaded records as the implicit
``range(n_keys)`` (:class:`repro.workloads.kv.common.KeySpace`) instead of
one dict entry per key.  The property test drives a service and a
``{key: value_bytes}`` reference with the same random read / update /
insert / scan sequence and requires every observable to agree: the read
hit flag (the size of the read's memory op), scan record counts, ``get``,
``len`` and Memcached's hit and miss counters.  The memory test pins the
point of the change: building a 50,000-key store allocates almost nothing.
"""

from __future__ import annotations

import bisect
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw import HWConfig, MemOp
from repro.oskernel import System
from repro.workloads.kv import MemcachedService, RedisService
from repro.ycsb.workloads import Query


def small_system():
    return System(config=HWConfig(sockets=1, cores_per_socket=2))


class _Thread:
    """Stands in for a SimThread: records each op, takes no time."""

    def __init__(self):
        self.ops = []

    def exec(self, op):
        self.ops.append(op)
        return
        yield


def _mem_ops(service, query):
    thread = _Thread()
    for _ in service._process(thread, query):
        pass
    return [op for op in thread.ops if isinstance(op, MemOp)]


class _DictModel:
    """The stores' behaviour as it was with one dict entry per key."""

    def __init__(self, n_keys, value_bytes):
        self.data = {k: value_bytes for k in range(n_keys)}
        self.hits = 0
        self.misses = 0

    def read(self, key):
        hit = key in self.data
        self.hits += hit
        self.misses += not hit
        return hit

    def write(self, key, value_bytes):
        self.data[key] = value_bytes

    def scan_count(self, start_key, scan_len):
        keys = sorted(self.data)
        return min(scan_len, len(keys) - bisect.bisect_left(keys, start_key))


#: keys below 0, inside and past the preloaded range, and far beyond it.
KEYS = st.one_of(
    st.integers(min_value=-15, max_value=60),
    st.sampled_from([-(10**12), 10**12]),
)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "update", "insert", "scan"]),
        KEYS,
        st.integers(min_value=1, max_value=4096),
        st.integers(min_value=1, max_value=80),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@example(  # one key inserted three times, then scans around it
    cls=RedisService,
    n_keys=10,
    value_bytes=100,
    ops=[
        ("insert", 50, 1, 1),
        ("insert", 50, 2, 1),
        ("insert", 50, 3, 1),
        ("scan", -5, 1, 100),
        ("scan", 10, 1, 100),
        ("scan", 50, 1, 100),
        ("scan", 51, 1, 100),
    ],
)
@given(
    cls=st.sampled_from([RedisService, MemcachedService]),
    n_keys=st.integers(min_value=0, max_value=40),
    value_bytes=st.integers(min_value=1, max_value=2000),
    ops=OPS,
)
def test_keyspace_matches_dict_model(cls, n_keys, value_bytes, ops):
    service = cls(small_system(), n_keys=n_keys, value_bytes=value_bytes)
    model = _DictModel(n_keys, value_bytes)
    read_lines = service.costs.read_lines
    probes = sorted({-1, 0, n_keys - 1, n_keys, n_keys + 1} | {k for _, k, _, _ in ops})
    for op, key, value, scan_len in ops:
        if op == "scan" and not service.supports_scan:
            op = "read"
        if op == "read":
            (mem,) = _mem_ops(service, Query("read", key))
            hit = model.read(key)
            assert mem.lines == (read_lines if hit else read_lines // 3)
        elif op == "scan":
            expected = model.scan_count(key, scan_len)
            assert service._keys.scan_count(key, scan_len) == expected
            ops_run = _mem_ops(service, Query("scan", key, scan_len=scan_len))
            assert len(ops_run) == max(1, expected)
        else:
            _mem_ops(service, Query(op, key, value_bytes=value))
            model.write(key, value)
        assert len(service) == len(model.data)
        for k in probes:
            assert service.get(k) == model.data.get(k)
    if cls is RedisService:
        for start in (-(10**12), -1, 0, n_keys, 10**12 + 1):
            for scan_len in (1, 7, 10**6):
                expected = model.scan_count(start, scan_len)
                assert service._keys.scan_count(start, scan_len) == expected
    else:
        assert (service.hits, service.misses) == (model.hits, model.misses)


@pytest.mark.parametrize("cls", [RedisService, MemcachedService])
def test_preloading_50k_keys_allocates_under_64_kib(cls):
    system = small_system()
    cls(system, n_keys=100, value_bytes=1000)  # warm one-time lazy state
    tracemalloc.start()
    try:
        service = cls(system, n_keys=50_000, value_bytes=1000)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(service) == 50_000
    assert peak < 64 * 1024, f"{cls.__name__}: peak {peak} B"
    assert current < 64 * 1024, f"{cls.__name__}: held {current} B"
