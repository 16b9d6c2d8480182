"""Shared scaffolding for the latency-critical services."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.oskernel import System, SimThread
from repro.sim import Store
from repro.workloads.base import LatencyRecorder
from repro.ycsb.workloads import Query


@dataclass(frozen=True)
class ServiceCosts:
    """Per-operation cost model of a service (uncontended CPU work).

    ``*_lines`` are cache-line touches (with the given DRAM-miss fraction);
    ``*_cycles`` are compute cycles.  Subclasses define defaults that give
    realistic uncontended service times; the DRAM fractions are what expose
    the service to SMT sibling interference.
    """

    read_cycles: float = 8_000.0
    read_lines: int = 1200
    read_dram_frac: float = 0.15
    update_cycles: float = 9_000.0
    update_lines: int = 1300
    update_dram_frac: float = 0.15
    #: per-record cost of a scan step.
    scan_cycles_per_rec: float = 4_000.0
    scan_lines_per_rec: int = 420
    scan_dram_frac: float = 0.18
    #: client<->server network + syscall overhead folded into latency (us).
    net_overhead_us: float = 25.0
    net_sigma: float = 0.25

    def with_overrides(self, **kwargs) -> "ServiceCosts":
        return replace(self, **kwargs)


class KeySpace:
    """The key -> value-size map of a preloaded in-memory store.

    Timing reads only key membership, so the ``n_keys`` preloaded records
    are the implicit ``range(n_keys)``, each of ``value_bytes``, rather
    than one dict entry per key.  ``_written`` holds only the keys an
    update or insert wrote, and ``_extra`` the written keys outside the
    range, sorted lazily when a scan needs them.  Keys are ints.
    """

    __slots__ = ("n_keys", "value_bytes", "_written", "_extra", "_extra_dirty")

    def __init__(self, n_keys: int, value_bytes: int):
        self.n_keys = n_keys
        self.value_bytes = value_bytes
        self._written: dict[int, int] = {}
        self._extra: list[int] = []
        self._extra_dirty = False

    def __contains__(self, key: int) -> bool:
        return 0 <= key < self.n_keys or key in self._written

    def __len__(self) -> int:
        return self.n_keys + len(self._extra)

    def get(self, key: int) -> Optional[int]:
        preloaded = self.value_bytes if 0 <= key < self.n_keys else None
        return self._written.get(key, preloaded)

    def put(self, key: int, value_bytes: int) -> None:
        if key not in self:
            self._extra.append(key)
            self._extra_dirty = True
        self._written[key] = value_bytes

    def scan_count(self, start_key: int, scan_len: int) -> int:
        """Number of records a scan from ``start_key`` returns: the keys
        ``>= start_key``, at most ``scan_len`` of them."""
        if self._extra_dirty:
            self._extra.sort()
            self._extra_dirty = False
        n = self.n_keys
        in_range = n - min(max(start_key, 0), n)
        beyond = len(self._extra) - bisect.bisect_left(self._extra, start_key)
        return min(scan_len, in_range + beyond)


class KVService:
    """Base class: request queue, worker threads, latency recording.

    Lifecycle: construct -> :meth:`start` (pins worker threads on the
    service's logical CPUs, as the paper pins each service on four logical
    CPUs) -> submit queries (usually via :class:`repro.ycsb.YCSBClient`).
    Workers never exit; the enclosing experiment simply stops running the
    simulation.
    """

    #: paper name; subclasses override.
    kind: str = "kv"
    #: number of query-serving worker threads.
    default_workers: int = 4
    #: whether the service supports scan queries (Memcached does not).
    supports_scan: bool = True
    default_costs: ServiceCosts = ServiceCosts()

    def __init__(
        self,
        system: System,
        n_keys: int = 100_000,
        value_bytes: int = 1000,
        costs: Optional[ServiceCosts] = None,
        name: Optional[str] = None,
        queue_capacity: int = 100_000,
        seed: int = 11,
    ):
        self.system = system
        self.env = system.env
        self.n_keys = n_keys
        self.value_bytes = value_bytes
        self.costs = costs or self.default_costs
        self.name = name or self.kind
        self.rng = np.random.default_rng(seed)
        self.request_queue = Store(self.env, capacity=queue_capacity,
                                   name=f"{self.name}:rq")
        self.recorder = LatencyRecorder(self.name)
        self.proc = None
        self.worker_threads: list[SimThread] = []
        self.rejected = 0
        self._load_data()

    # -- hooks for subclasses ------------------------------------------------

    def _load_data(self) -> None:
        """Preload ``n_keys`` records (subclasses build their structures)."""
        raise NotImplementedError

    def _process(self, thread: SimThread, query: Query):
        """Generator: execute one query's work on ``thread``."""
        raise NotImplementedError

    def _start_background(self, lcpus: frozenset[int]) -> None:
        """Spawn background threads (compaction, eviction...); optional."""

    def resident_bytes(self) -> int:
        """Resident set of the service (paper Sec. 6.3: ~2 GB for the
        in-memory stores, ~1 GB of cache for the disk-backed ones).
        Subclasses refine; the default scales with the loaded data."""
        return self.n_keys * (self.value_bytes + 96)

    # -- lifecycle ---------------------------------------------------------------

    def start(self, lcpus, n_workers: Optional[int] = None) -> None:
        """Pin the service's threads onto ``lcpus`` and begin serving."""
        lcpus = frozenset(lcpus)
        if not lcpus:
            raise ValueError(f"{self.name}: empty lcpu set")
        if self.proc is not None:
            raise RuntimeError(f"{self.name} already started")
        n_workers = n_workers if n_workers is not None else self.default_workers
        self.proc = self.system.spawn_process(self.name)
        self.proc.resident_bytes = self.resident_bytes()
        for i in range(n_workers):
            t = self.proc.spawn_thread(
                self._worker_body, affinity=lcpus, name=f"{self.name}/w{i}"
            )
            self.worker_threads.append(t)
        self._start_background(lcpus)

    @property
    def pid(self) -> int:
        if self.proc is None:
            raise RuntimeError(f"{self.name} not started")
        return self.proc.pid

    # -- request path -----------------------------------------------------------

    def submit(self, query: Query, now: float) -> bool:
        """Enqueue a query; returns False if the connection backlog is full."""
        if query.op == "scan" and not self.supports_scan:
            raise ValueError(f"{self.name} does not support scan queries")
        try:
            self.request_queue.put_nowait((query, now))
            return True
        except Exception:
            self.rejected += 1
            return False

    def _net_overhead(self) -> float:
        c = self.costs
        s = c.net_sigma
        return c.net_overhead_us * float(
            np.exp(self.rng.normal(-0.5 * s * s, s))
        )

    def _worker_body(self, thread: SimThread):
        while True:
            query, t0 = yield from thread.wait(self.request_queue.get())
            if query.op == "rmw":
                # read-modify-write (workload-f): a read followed by an
                # update of the same key, measured as one operation.
                yield from self._process(thread, Query("read", query.key,
                                                       query.value_bytes))
                yield from self._process(thread, Query("update", query.key,
                                                       query.value_bytes))
            else:
                yield from self._process(thread, query)
            latency = (self.env.now - t0) + self._net_overhead()
            self.recorder.record(t0, latency, op=query.op)

    # -- introspection ---------------------------------------------------------------

    @property
    def completed(self) -> int:
        return len(self.recorder)

    def queue_depth(self) -> int:
        return len(self.request_queue)
