"""Per-layer accounting for the traced run, measured from outside ``src/``.

Nothing here edits the program.  :class:`LayerTracer` patches counting
wrappers onto the public entry points of each ``repro.<package>`` layer
(class attributes, restored on exit), captures every simulation
environment by wrapping the ``System``/``Cluster`` constructors, times
the calendar's ``run`` loop, and runs the op under stdlib ``cProfile``
so self time can be folded by package.

The same tracer runs inside socket workers (see ``worker_hook/``), which
write one JSON record per executed cell into a directory the parent
reads back after the op.
"""

from __future__ import annotations

import cProfile
import importlib
import itertools
import json
import os
import pstats
import time
from collections import Counter

#: self-time buckets, one per ``repro.<package>``; everything else
#: (stdlib, numpy, repro packages not listed) lands in ``other``.
LAYERS = (
    "sim",
    "hw",
    "oskernel",
    "workloads",
    "ycsb",
    "yarnlike",
    "core",
    "cluster",
    "runner",
    "obs",
    "tracing",
    "faults",
    "perf",
    "experiments",
    "other",
)

#: (module, class, attribute, counter).  Each call of the attribute --
#: or each read, for a property -- adds one to the counter.
# fmt: off
BOUNDARIES = (
    ("repro.sim.resources", "Request", "__init__", "sim.request_allocs"),
    ("repro.sim.resources", "Resource", "count", "sim.resource_probes"),
    ("repro.sim.resources", "Resource", "queue_length", "sim.resource_probes"),
    ("repro.oskernel.thread", "SimThread", "exec", "oskernel.quanta"),
    ("repro.oskernel.thread", "SimThread", "_choose_lcpu", "oskernel.lcpu_choices"),
    ("repro.oskernel.system", "System", "sched_setaffinity", "oskernel.affinity_writes"),
    ("repro.oskernel.cgroup", "Cgroup", "set_cpuset", "oskernel.affinity_writes"),
    ("repro.hw.server", "Server", "mem_quantum", "hw.mem_quanta"),
    ("repro.hw.server", "Server", "comp_quantum", "hw.comp_quanta"),
    ("repro.hw.counters", "CounterEngine", "account_mem", "hw.counter_accruals"),
    ("repro.hw.counters", "CounterEngine", "account_compute", "hw.counter_accruals"),
    ("repro.core.monitor", "MetricMonitor", "collect", "core.monitor_collects"),
    ("repro.core.scheduler", "HolmesScheduler", "tick", "core.sched_ticks"),
    ("repro.workloads.base", "LatencyRecorder", "record", "workloads.queries"),
    ("repro.cluster.scheduler", "ClusterBatchScheduler", "_tick", "cluster.ticks"),
    ("repro.cluster.scheduler", "ClusterBatchScheduler", "pick_node", "cluster.pick_node"),
    ("repro.cluster.dataplane", "ClusterDataPlane", "score_vector", "cluster.score_vectors"),
    ("repro.obs.bus", "EventBus", "emit", "obs.emits"),
    ("repro.tracing.tracer", "ExecutionTracer", "_record", "tracing.quanta"),
    ("repro.faults.injector", "FaultInjector", "counter_fault", "faults.decisions"),
    ("repro.faults.injector", "FaultInjector", "counter_retry_ok", "faults.decisions"),
    ("repro.faults.injector", "FaultInjector", "corrupt", "faults.decisions"),
    ("repro.faults.injector", "FaultInjector", "tick_fault", "faults.decisions"),
    ("repro.faults.injector", "FaultInjector", "cgroup_fault", "faults.decisions"),
)
# fmt: on

#: every exact work count of the ledger, in report order.  The runner
#: counts come from :class:`FrameProbe` and the runner's telemetry.
COUNTS = (
    "sim.calendar_pushes",
    *dict.fromkeys(b[3] for b in BOUNDARIES),
    "runner.cells",
    "runner.frames",
    "runner.frame_bytes",
    "runner.respawns",
    "runner.retries",
)

#: the calendar kernels whose ``run`` loop marks the simulate phase.
_CALENDARS = (
    ("repro.sim.calendar", "HeapEnvironment"),
    ("repro.sim.calendar", "WheelEnvironment"),
)
#: constructors whose instances carry the simulation environment.
_ENV_OWNERS = (
    ("repro.oskernel.system", "System"),
    ("repro.cluster.cluster", "Cluster"),
)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _counting(fn, counts: Counter, name: str):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def _counting_property(prop: property, counts: Counter, name: str) -> property:
    fget = prop.fget

    def counted(self):
        counts[name] += 1
        return fget(self)

    return property(counted, prop.fset, prop.fdel, prop.__doc__)


class _Patches:
    """Class-attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _class(module: str, name: str):
    return getattr(importlib.import_module(module), name)


class LayerTracer:
    """Counts boundary calls, times phases and profiles one op.

    Use as a context manager around exactly one op; afterwards
    :meth:`summary` holds the counts, the per-layer cProfile self time
    and the build/run/collect phase split.  ``timer`` replaces cProfile's
    wall clock, e.g. with ``time.process_time`` for a process that mostly
    waits on others.
    """

    def __init__(self, timer=None):
        self.counts: Counter = Counter()
        self._envs: dict[int, object] = {}
        self._patches = _Patches()
        self._profile = cProfile.Profile(timer) if timer else cProfile.Profile()
        self._t0 = self._t1 = 0.0
        self._run_s = 0.0
        self._first_run = None
        self._last_run_end = None

    def _install(self) -> None:
        counts = self.counts
        for module, cls_name, attr, name in BOUNDARIES:
            cls = _class(module, cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, property):
                new = _counting_property(orig, counts, name)
            else:
                new = _counting(orig, counts, name)
            self._patches.set(cls, attr, new)
        envs = self._envs
        for module, cls_name in _ENV_OWNERS:
            cls = _class(module, cls_name)
            init = cls.__dict__["__init__"]

            def capture(obj, *args, _init=init, **kwargs):
                _init(obj, *args, **kwargs)
                envs[id(obj.env)] = obj.env

            self._patches.set(cls, "__init__", capture)
        for module, cls_name in _CALENDARS:
            cls = _class(module, cls_name)
            self._patches.set(cls, "run", self._timed_run(cls.__dict__["run"]))

    def _timed_run(self, run):
        def timed(env, *args, **kwargs):
            t0 = time.perf_counter()
            if self._first_run is None:
                self._first_run = t0
            try:
                return run(env, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._run_s += t1 - t0
                self._last_run_end = t1

        return timed

    def __enter__(self) -> "LayerTracer":
        self._install()
        self._t0 = time.perf_counter()
        self._profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._profile.disable()
        self._t1 = time.perf_counter()
        self._patches.restore()

    @property
    def wall_s(self) -> float:
        return self._t1 - self._t0

    def summary(self) -> dict:
        counts = {name: 0 for name in COUNTS}
        counts.update(self.counts)
        counts["sim.calendar_pushes"] = sum(e._seq for e in self._envs.values())
        first = self._first_run if self._first_run is not None else self._t1
        last = self._last_run_end if self._last_run_end is not None else self._t1
        return {
            "counts": counts,
            "self_s": self_time_by_layer(self._profile),
            "phases": {
                "build_s": first - self._t0,
                "run_s": self._run_s,
                "collect_s": self._t1 - last,
            },
            "wall_s": self.wall_s,
        }


def _layer_of(filename: str, repro_dir: str) -> str:
    if filename.startswith(_BENCH_DIR):
        return "bench"
    if filename.startswith(repro_dir):
        package = filename[len(repro_dir) :].split(os.sep)[0]
        if package in LAYERS:
            return package
    return "other"


def self_time_by_layer(profile: cProfile.Profile) -> dict:
    """Fold cProfile self time into :data:`LAYERS` (plus ``bench``).

    A builtin (C) function's time goes to the layer of each Python
    caller, in proportion to what cProfile recorded per caller, so a
    layer's C calls (``len``, ``heapq.heappush``, numpy ufuncs) count as
    that layer's cost.  ``bench`` is the tracer's own wrapper code.
    """
    import repro

    repro_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    out = dict.fromkeys((*LAYERS, "bench"), 0.0)
    stats = pstats.Stats(profile).stats
    for (filename, _line, _func), (_cc, _nc, tt, _ct, callers) in stats.items():
        if filename != "~":
            out[_layer_of(filename, repro_dir)] += tt
            continue
        attributed = 0.0
        for (caller_file, _l, _f), caller_stats in callers.items():
            share = caller_stats[2]
            layer = (
                "other" if caller_file == "~" else _layer_of(caller_file, repro_dir)
            )
            out[layer] += share
            attributed += share
        out["other"] += max(0.0, tt - attributed)
    return out


# -- the socket-runner frame probe (parent side) ---------------------------


class FrameProbe:
    """Counts the runner's loopback frames in the parent process.

    Task and result frames are deduplicated by cell, so a speculative
    clone -- launched or not depending on timing -- never changes the
    count; heartbeat pings are skipped for the same reason.  Byte counts
    cover the deterministic part of each frame: the task spec and the
    result payload as JSON.
    """

    def __init__(self):
        self._patches = _Patches()
        self._tasks: dict[int, str] = {}
        self._cells: set[str] = set()
        self._results: set[str] = set()
        self.counts: Counter = Counter()

    @staticmethod
    def _bytes(obj) -> int:
        return len(json.dumps(obj, separators=(",", ":")))

    def _sent(self, frame: dict) -> None:
        kind = frame.get("type")
        if kind == "task":
            spec = {k: frame[k] for k in ("kind", "params", "seed")}
            key = json.dumps(spec, sort_keys=True)
            self._tasks[frame["task_id"]] = key
            if key not in self._cells:
                self._cells.add(key)
                self.counts["runner.frames"] += 1
                self.counts["runner.frame_bytes"] += self._bytes(spec)
        elif kind == "shutdown":
            self.counts["runner.frames"] += 1

    def _received(self, frame) -> None:
        kind = frame.get("type") if isinstance(frame, dict) else None
        if kind == "hello":
            self.counts["runner.frames"] += 1
        elif kind in ("result", "error"):
            key = self._tasks.get(frame.get("task_id"))
            if key is not None and key not in self._results:
                self._results.add(key)
                self.counts["runner.frames"] += 1
                self.counts["runner.frame_bytes"] += self._bytes(
                    frame.get("payload", frame.get("error"))
                )

    def __enter__(self) -> "FrameProbe":
        from repro.runner import executors

        send, recv = executors.send_frame, executors.recv_frame
        on_frame = executors.SocketExecutor.__dict__["_on_frame"]

        def send_frame(sock, obj):
            self._sent(obj)
            return send(sock, obj)

        def recv_frame(sock):
            frame = recv(sock)
            self._received(frame)
            return frame

        def counted_on_frame(executor, worker, frame, out):
            self._received(frame)
            return on_frame(executor, worker, frame, out)

        # module globals are replaced through the same undo log as the
        # class attributes (a module's __dict__ is its namespace).
        self._patches.set(executors, "send_frame", send_frame)
        self._patches.set(executors, "recv_frame", recv_frame)
        self._patches.set(executors.SocketExecutor, "_on_frame", counted_on_frame)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()
        self.counts["runner.cells"] = len(self._cells)


# -- the worker side -----------------------------------------------------

#: environment variable naming the directory traced workers write into.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


def install_worker_hook(out_dir: str) -> None:
    """Trace every cell this worker process executes into ``out_dir``."""
    from repro.runner import cells

    execute_cell = cells.execute_cell
    seq = itertools.count()

    def traced_execute_cell(cell):
        with LayerTracer() as tracer:
            payload = execute_cell(cell)
        record = {"cell": cell.cell_id, **tracer.summary()}
        path = os.path.join(out_dir, f"{os.getpid()}-{next(seq)}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(record, fh)
        os.replace(path + ".tmp", path)
        return payload

    cells.execute_cell = traced_execute_cell


def read_worker_records(out_dir: str) -> list[dict]:
    """Load the records traced workers wrote, in file-name order."""
    records = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as fh:
                records.append(json.load(fh))
    return records


def fold_worker_records(records: list[dict]) -> dict:
    """Combine worker records into one op summary.

    Counts and phases come from one record per cell (a speculative clone
    repeats its cell's exact work); self time sums every execution,
    clones included, because that host time was really spent.
    """
    counts = dict.fromkeys(COUNTS, 0)
    self_s = dict.fromkeys((*LAYERS, "bench"), 0.0)
    phases = {"build_s": 0.0, "run_s": 0.0, "collect_s": 0.0}
    seen: set[str] = set()
    for rec in records:
        for layer, secs in rec["self_s"].items():
            self_s[layer] += secs
        if rec["cell"] in seen:
            continue
        seen.add(rec["cell"])
        for name, n in rec["counts"].items():
            counts[name] += n
        for name, secs in rec["phases"].items():
            phases[name] += secs
    return {"counts": counts, "self_s": self_s, "phases": phases}
