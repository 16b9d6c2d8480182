"""Redis-like service: a single-threaded in-memory KV store.

Redis serves all user requests from one event-loop thread (the paper
notes this is why its latency is the most sensitive to interference:
"When requests are delayed on the thread, there is no other thread to
dispatch the requests").  Background threads (lazy-free / AOF-ish
housekeeping) exist but do light work.
"""

from __future__ import annotations

from repro.hw.ops import CompOp, MemOp
from repro.oskernel import SimThread
from repro.workloads.kv.common import KeySpace, KVService, ServiceCosts
from repro.ycsb.workloads import Query


class RedisService(KVService):
    kind = "redis"
    default_workers = 1  # the single event-loop thread
    supports_scan = True
    default_costs = ServiceCosts(
        read_cycles=7_000.0,
        read_lines=1150,
        read_dram_frac=0.15,
        update_cycles=8_000.0,
        update_lines=1250,
        update_dram_frac=0.15,
        scan_cycles_per_rec=4_000.0,
        scan_lines_per_rec=420,
        scan_dram_frac=0.18,
    )

    def _load_data(self) -> None:
        self._keys = KeySpace(self.n_keys, self.value_bytes)

    # -- operations ------------------------------------------------------------

    def _process(self, thread: SimThread, query: Query):
        c = self.costs
        if query.op == "read":
            yield from thread.exec(CompOp(cycles=c.read_cycles))
            hit = query.key in self._keys
            lines = c.read_lines if hit else c.read_lines // 3
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
        elif query.op == "scan":
            yield from thread.exec(CompOp(cycles=c.read_cycles))
            n = self._keys.scan_count(query.key, query.scan_len)
            for _ in range(max(1, n)):
                yield from thread.exec(
                    MemOp(lines=c.scan_lines_per_rec, dram_frac=c.scan_dram_frac)
                )
                yield from thread.exec(CompOp(cycles=c.scan_cycles_per_rec))
        else:
            raise ValueError(f"unknown op {query.op!r}")

    def get(self, key: int):
        """Direct (un-timed) lookup, for tests and tooling."""
        return self._keys.get(key)

    def __len__(self) -> int:
        return len(self._keys)
