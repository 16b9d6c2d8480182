"""Memcached-like service: a multi-threaded in-memory cache.

Four worker threads (memcached's default is one worker per core); the
protocol is simpler than Redis so the per-op compute is lighter.  Scans
are unsupported, which is why the paper has no workload-e for Memcached.
"""

from __future__ import annotations

from repro.hw.ops import CompOp, MemOp
from repro.oskernel import SimThread
from repro.workloads.kv.common import KeySpace, KVService, ServiceCosts
from repro.ycsb.workloads import Query


class MemcachedService(KVService):
    kind = "memcached"
    default_workers = 4
    supports_scan = False
    default_costs = ServiceCosts(
        read_cycles=10_000.0,
        read_lines=3400,
        read_dram_frac=0.15,
        update_cycles=11_000.0,
        update_lines=3700,
        update_dram_frac=0.15,
    )

    def _load_data(self) -> None:
        self._keys = KeySpace(self.n_keys, self.value_bytes)
        self.hits = 0
        self.misses = 0

    def _process(self, thread: SimThread, query: Query):
        c = self.costs
        if query.op == "read":
            yield from thread.exec(CompOp(cycles=c.read_cycles))
            if query.key in self._keys:
                self.hits += 1
                lines = c.read_lines
            else:
                self.misses += 1
                lines = c.read_lines // 3
            yield from thread.exec(MemOp(lines=lines, dram_frac=c.read_dram_frac))
        elif query.op in ("update", "insert"):
            yield from thread.exec(CompOp(cycles=c.update_cycles))
            yield from thread.exec(
                MemOp(
                    lines=c.update_lines,
                    dram_frac=c.update_dram_frac,
                    store_frac=0.5,
                )
            )
            self._keys.put(query.key, query.value_bytes)
        else:
            raise ValueError(f"memcached cannot serve op {query.op!r}")

    def get(self, key: int):
        return self._keys.get(key)

    def __len__(self) -> int:
        return len(self._keys)
