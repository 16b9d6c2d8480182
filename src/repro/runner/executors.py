"""Pluggable cell executors behind one pull-based protocol.

The dispatch core (:mod:`repro.runner.dispatch`) never touches a pool or
a socket directly; it talks to an :class:`Executor`:

* :meth:`Executor.submit` hands over one :class:`Task` (a cell spec plus
  a dispatch-assigned task id);
* :meth:`Executor.wait` blocks until at least one submitted task has
  finished and returns its :class:`Completion`\\ s -- streaming, in
  completion order, never head-of-line blocked on the slowest task;
* :meth:`Executor.cancel` is the best-effort kill switch speculation
  uses on the losing clone.

Three implementations:

* :class:`InProcessExecutor` -- capacity 1, runs cells synchronously in
  the parent.  The serial reference every other executor is
  byte-compared against.
* :class:`PoolExecutor` -- a ``ProcessPoolExecutor`` wrapper.  A worker
  that dies poisons the whole stdlib pool; the wrapper converts the
  wreckage into per-task error completions and rebuilds the pool, so
  the dispatch core's retry path sees an ordinary failure instead of a
  lost sweep.
* :class:`SocketExecutor` -- worker subprocesses dialing back over
  loopback TCP speaking the length-prefixed JSON protocol of
  :mod:`repro.runner.worker`.  This is the stand-in for multi-host
  remoting: per-worker handshake with a one-shot token, heartbeat
  timeout, and reconnect-with-requeue when a worker dies mid-cell.

Executors are transport, not policy: retries, ordering, speculation and
caching all live in the dispatch core, so every transport inherits the
same semantics.  The transport *budgets* (worker respawns, per-task
requeues, pool rebuilds) come from one
:class:`~repro.runner.resilience.RetryPolicy`, and every recovery
decision -- bury, respawn, requeue, rebuild -- is reported through an
optional ``on_event`` callback with full audit fields, which the runner
forwards to the observability plane and the sweep journal.
"""

from __future__ import annotations

import gc
import json
import os
import secrets
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.runner import HEARTBEAT_BUCKETS_S
from repro.runner.worker import PING_INTERVAL_S, recv_frame, send_frame


@dataclass(frozen=True)
class Task:
    """One dispatched cell execution (possibly a speculative clone)."""

    task_id: int
    #: picklable/JSON-able cell spec: (kind, param_dict, seed).
    kind: str
    params: dict
    seed: int
    #: trace context: the parent-side span id worker-side compute spans
    #: attach to (None = telemetry off; nothing crosses the wire).
    span_id: Optional[int] = None


@dataclass
class Completion:
    """Outcome of one task: a payload or an exception, never both."""

    task_id: int
    payload: Optional[dict] = None
    compute_s: float = 0.0
    error: Optional[BaseException] = None
    #: worker-side span dicts riding back beside (never inside) the
    #: payload; the dispatch core adopts them into the parent trace.
    spans: Optional[list] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _compute_span(
    span_id: Optional[int], kind: str, t0: float, t1: float, status: str
) -> Optional[list]:
    """The worker-side compute span for one executed task, or None."""
    if span_id is None:
        return None
    return [{
        "name": "compute", "cat": "worker", "parent": span_id,
        "t0": t0, "t1": t1, "status": status,
        "args": {"pid": os.getpid(), "kind": kind},
    }]


class ExecutorError(RuntimeError):
    """The executor itself broke (not a cell failure): lost workers,
    handshake timeout, protocol violation."""


def _execute_task(task: Task) -> Completion:
    """Run one task in the current process (shared by two executors)."""
    from repro.runner.cells import Cell, execute_cell, release_cell

    t0 = time.perf_counter()
    w0 = time.time()
    try:
        payload = execute_cell(Cell.make(task.kind, task.params, task.seed))
    except BaseException as exc:  # noqa: BLE001 - carried to the core
        done = Completion(
            task.task_id,
            error=exc,
            spans=_compute_span(
                task.span_id, task.kind, w0, time.time(), "error"
            ),
        )
    else:
        done = Completion(
            task.task_id,
            payload=payload,
            compute_s=time.perf_counter() - t0,
            spans=_compute_span(task.span_id, task.kind, w0, time.time(), "ok"),
        )
    release_cell()
    return done


class _ExecutorContext:
    """Context-manager mixin: ``with make_executor(...) as ex`` closes it."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class InProcessExecutor(_ExecutorContext):
    """Serial reference executor: one slot, runs cells in the parent."""

    name = "inprocess"
    capacity = 1

    def __init__(self):
        self._queue: deque[Task] = deque()

    def submit(self, task: Task) -> None:
        self._queue.append(task)

    def wait(self) -> list[Completion]:
        if not self._queue:
            raise ExecutorError("wait() with no submitted task")
        return [_execute_task(self._queue.popleft())]

    def cancel(self, task_id: int) -> bool:
        for task in self._queue:
            if task.task_id == task_id:
                self._queue.remove(task)
                return True
        return False

    def close(self) -> None:
        self._queue.clear()


def _pool_worker(spec: tuple) -> tuple[dict, float, Optional[list]]:
    """Module-level pool body (must be picklable)."""
    from repro.runner.cells import Cell, execute_cell, release_cell

    kind, params, seed, span_id = spec
    t0 = time.perf_counter()
    w0 = time.time()
    payload = execute_cell(Cell.make(kind, params, seed))
    compute_s = time.perf_counter() - t0
    spans = _compute_span(span_id, kind, w0, time.time(), "ok")
    # the payload is plain data; what the cell built is garbage by now
    release_cell()
    return payload, compute_s, spans


def _new_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers freeze their inherited heap at start.

    ``gc.freeze`` splices the generation lists instead of visiting
    objects, so the collector never walks (and copies on write) the heap
    a forked worker inherits, and each ``release_cell`` walks only the
    cell's own objects.
    """
    return ProcessPoolExecutor(max_workers=workers, initializer=gc.freeze)


class PoolExecutor(_ExecutorContext):
    """Process-pool transport with budgeted broken-pool recovery.

    ``wait`` streams completions as futures resolve.  When the pool
    breaks (a worker hard-exited), every in-flight task is reported as a
    failed completion and a fresh pool replaces the broken one -- the
    dispatch core's normal retry path then recovers each cell instead of
    the whole sweep dying.  Rebuilds are bounded by the retry policy's
    ``rebuild_budget``: once spent, the executor declares itself dead --
    submitted tasks come back as error completions, and ``wait`` with
    nothing left to report raises :class:`ExecutorError`, which the
    dispatch core answers by backfilling every unfinished cell in the
    parent.
    """

    name = "pool"

    def __init__(
        self,
        parallel: int,
        retry_policy=None,
        on_event: Optional[Callable[..., None]] = None,
    ):
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        self.capacity = parallel
        self.on_event = on_event
        self._rebuilds_left = (
            retry_policy.rebuild_budget if retry_policy is not None else 2
        )
        self._dead = False
        self._lost: list[Completion] = []  # submits after pool death
        self._pool = _new_pool(parallel)
        self._futures: dict = {}  # future -> task_id

    def _emit(self, name: str, **fields) -> None:
        if self.on_event is not None:
            self.on_event(name, **fields)

    def submit(self, task: Task) -> None:
        if self._dead:
            # submit must not raise (the dispatch core calls it
            # unguarded); report the loss as an ordinary completion.
            self._lost.append(
                Completion(
                    task.task_id,
                    error=ExecutorError(
                        "process pool is dead (rebuild budget spent)"
                    ),
                )
            )
            return
        fut = self._pool.submit(
            _pool_worker, (task.kind, task.params, task.seed, task.span_id)
        )
        self._futures[fut] = task.task_id

    def wait(self) -> list[Completion]:
        if self._lost:
            out, self._lost = self._lost, []
            out.sort(key=lambda c: c.task_id)
            return out
        if self._dead:
            raise ExecutorError("process pool is dead (rebuild budget spent)")
        if not self._futures:
            raise ExecutorError("wait() with no submitted task")
        done, _ = futures_wait(self._futures, return_when=FIRST_COMPLETED)
        out = []
        broken = False
        for fut in done:
            task_id = self._futures.pop(fut)
            try:
                payload, secs, spans = fut.result()
            except BaseException as exc:  # noqa: BLE001 - carried to the core
                out.append(Completion(task_id, error=exc))
                broken = broken or self._is_broken(exc)
            else:
                out.append(Completion(task_id, payload=payload,
                                      compute_s=secs, spans=spans))
        if broken:
            # the remaining futures are doomed too: drain them as
            # failures and stand up a replacement pool for future work.
            for fut, task_id in list(self._futures.items()):
                try:
                    payload, secs, spans = fut.result()
                    out.append(
                        Completion(task_id, payload=payload,
                                   compute_s=secs, spans=spans)
                    )
                except BaseException as exc:  # noqa: BLE001
                    out.append(Completion(task_id, error=exc))
            self._futures.clear()
            self._pool.shutdown(wait=False, cancel_futures=True)
            if self._rebuilds_left > 0:
                self._rebuilds_left -= 1
                self._pool = _new_pool(self.capacity)
                self._emit(
                    "pool_rebuild",
                    drained=len(out),
                    rebuilds_left=self._rebuilds_left,
                )
            else:
                self._dead = True
                self._emit("pool_dead", drained=len(out))
        # deterministic reporting order regardless of set iteration.
        out.sort(key=lambda c: c.task_id)
        return out

    @staticmethod
    def _is_broken(exc: BaseException) -> bool:
        from concurrent.futures.process import BrokenProcessPool

        return isinstance(exc, BrokenProcessPool)

    def cancel(self, task_id: int) -> bool:
        for comp in self._lost:
            if comp.task_id == task_id:
                self._lost.remove(comp)
                return True
        for fut, tid in list(self._futures.items()):
            if tid == task_id and fut.cancel():
                del self._futures[fut]
                return True
        return False

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._futures.clear()
        self._lost.clear()


class _SocketWorker:
    """Parent-side state of one worker subprocess."""

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.conn: Optional[socket.socket] = None
        self.task: Optional[Task] = None
        self.last_recv = time.monotonic()
        #: telemetry span ids (−1 / None when telemetry is off)
        self.hs_span: int = -1
        self.assign_span: int = -1

    @property
    def idle(self) -> bool:
        return self.conn is not None and self.task is None


class SocketExecutor(_ExecutorContext):
    """Loopback-socket transport: the multi-host remoting stand-in.

    Workers are subprocesses that dial back into a listener on
    ``127.0.0.1`` and authenticate with a one-shot token.  Tasks are
    assigned to idle workers as frames; a worker that dies mid-cell
    (process exit, EOF, protocol violation, heartbeat silence beyond
    ``heartbeat_timeout_s``) has its task requeued onto the next idle
    worker and is replaced, up to ``max_respawns`` replacements.  A task
    that kills ``requeue_budget + 1`` workers in a row is reported as a
    failed completion instead of being requeued again -- a poisonous
    cell must surface through the dispatch core's retry path, not
    grind the worker fleet forever.

    ``retry_policy`` (a :class:`~repro.runner.resilience.RetryPolicy`)
    overrides both budgets; ``chaos_plan`` (a
    :class:`~repro.faults.plan.FaultPlan` with transport specs) is
    forwarded to every worker, which injects the faults itself so the
    *real* bury/requeue/respawn paths run; ``on_event`` receives one
    call per recovery decision with full audit fields.
    """

    name = "socket"

    #: liberal by default: CI containers schedule 1-core hosts in bursts.
    HANDSHAKE_TIMEOUT_S = 120.0

    def __init__(
        self,
        parallel: int,
        heartbeat_timeout_s: float = 60.0,
        max_respawns: int = 4,
        requeue_budget: int = 1,
        retry_policy=None,
        chaos_plan=None,
        on_event: Optional[Callable[..., None]] = None,
        telemetry=None,
    ):
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        if retry_policy is not None:
            max_respawns = retry_policy.respawn_budget
            requeue_budget = retry_policy.requeue_budget
        self.capacity = parallel
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.on_event = on_event
        self.telemetry = telemetry if (
            telemetry is not None and telemetry.enabled
        ) else None
        self._respawns_left = max_respawns
        self._requeue_budget = requeue_budget
        self._chaos_json: Optional[str] = None
        if chaos_plan is not None:
            from repro.faults.plan import FaultPlan

            self._chaos_json = FaultPlan.coerce(chaos_plan).to_json()
        self._spawned = 0
        self._token = secrets.token_hex(16)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.setblocking(False)
        self._port = self._listener.getsockname()[1]
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._pending: deque[Task] = deque()
        self._requeues: dict[int, int] = {}  # task_id -> deaths survived
        self._cancelled: set[int] = set()
        self._bufs: dict[socket.socket, bytearray] = {}
        self._workers: list[_SocketWorker] = []
        self._started = time.monotonic()
        try:
            for _ in range(parallel):
                self._workers.append(self._new_worker())
        except BaseException:
            # partial construction must not leak the listener, the
            # selector, or any worker subprocess already started.
            for worker in self._workers:
                worker.proc.kill()
            self._workers.clear()
            self._selector.close()
            self._listener.close()
            raise

    def _emit(self, name: str, **fields) -> None:
        if self.on_event is not None:
            self.on_event(name, **fields)

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self) -> subprocess.Popen:
        env = os.environ.copy()
        # the worker must import repro no matter how the parent found it.
        import repro

        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        parts = [pkg_root] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        # -c instead of -m: runpy would re-execute a module the worker's
        # own package import already loaded, and warn about it.
        argv = [
            sys.executable,
            "-c",
            "import sys; from repro.runner import worker; "
            "sys.exit(worker.main(sys.argv[1:]))",
            "--connect",
            f"127.0.0.1:{self._port}",
            "--token",
            self._token,
        ]
        if self._chaos_json is not None:
            # every spawn gets a fresh worker index, so a respawned
            # worker draws from new fault channels instead of replaying
            # its predecessor's death.
            argv += [
                "--faults",
                self._chaos_json,
                "--worker-index",
                str(self._spawned),
            ]
        self._spawned += 1
        return subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL)

    def _new_worker(self) -> _SocketWorker:
        """Spawn a worker; its handshake span runs spawn -> hello."""
        worker = _SocketWorker(self._spawn())
        if self.telemetry is not None:
            worker.hs_span = self.telemetry.begin(
                "handshake",
                cat="transport",
                lane=f"w{worker.proc.pid}",
                pid=worker.proc.pid,
            )
        return worker

    def _bury(
        self,
        worker: _SocketWorker,
        out: list[Completion],
        reason: str = "death",
    ) -> None:
        """Handle a dead worker: requeue or fail its task, maybe respawn."""
        tel = self.telemetry
        if worker.conn is not None:
            try:
                self._selector.unregister(worker.conn)
            except (KeyError, ValueError):
                pass
            self._bufs.pop(worker.conn, None)
            worker.conn.close()
            worker.conn = None
        elif tel is not None:
            # died before (or without) completing the handshake
            tel.end(worker.hs_span, status="lost", reason=reason)
        if worker.proc.poll() is None:
            worker.proc.kill()
        task, worker.task = worker.task, None
        if tel is not None and task is not None:
            # the in-flight assignment was cut short: a truncated span.
            tel.end(worker.assign_span, status="truncated", reason=reason)
            worker.assign_span = -1
        self._emit(
            "bury",
            pid=worker.proc.pid,
            reason=reason,
            task_id=None if task is None else task.task_id,
        )
        if task is not None:
            if task.task_id in self._cancelled:
                # the sibling already won; nobody wants this task
                # recomputed, but the cancel contract promises a
                # completion, so surface the loss instead of requeueing.
                self._cancelled.discard(task.task_id)
                self._requeues.pop(task.task_id, None)
                out.append(
                    Completion(
                        task.task_id,
                        error=ExecutorError(
                            f"cancelled task {task.task_id} lost its worker"
                        ),
                    )
                )
            else:
                deaths = self._requeues.get(task.task_id, 0) + 1
                self._requeues[task.task_id] = deaths
                if deaths > self._requeue_budget:
                    # budget spent: fail the task and drop its stale
                    # bookkeeping so a retried clone starts fresh.
                    self._requeues.pop(task.task_id, None)
                    self._emit(
                        "requeue_exhausted",
                        task_id=task.task_id,
                        deaths=deaths,
                    )
                    out.append(
                        Completion(
                            task.task_id,
                            error=ExecutorError(
                                f"task {task.task_id} lost {deaths} workers; "
                                f"not requeuing again"
                            ),
                        )
                    )
                else:
                    self._emit(
                        "requeue", task_id=task.task_id, deaths=deaths
                    )
                    if tel is not None:
                        tel.instant(
                            "requeue",
                            cat="transport",
                            parent=task.span_id,
                            lane="fleet",
                            task_id=task.task_id,
                            deaths=deaths,
                        )
                    self._pending.appendleft(task)
        self._workers.remove(worker)
        if self._respawns_left > 0:
            self._respawns_left -= 1
            respawn_span = -1
            if tel is not None:
                respawn_span = tel.begin(
                    "respawn",
                    cat="transport",
                    lane="fleet",
                    buried_pid=worker.proc.pid,
                    respawns_left=self._respawns_left,
                )
            self._workers.append(self._new_worker())
            if tel is not None:
                tel.end(respawn_span, pid=self._workers[-1].proc.pid)
            self._emit("respawn", respawns_left=self._respawns_left)

    # -- frame plumbing ----------------------------------------------------

    def _worker_for(self, conn: socket.socket) -> Optional[_SocketWorker]:
        for worker in self._workers:
            if worker.conn is conn:
                return worker
        return None

    def _accept(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except BlockingIOError:
            return
        conn.setblocking(True)
        conn.settimeout(10.0)
        try:
            hello = recv_frame(conn)
        except (OSError, ValueError):
            conn.close()
            return
        if (
            hello is None
            or hello.get("type") != "hello"
            or hello.get("token") != self._token
        ):
            conn.close()
            return
        pid = hello.get("pid")
        for worker in self._workers:
            if worker.conn is None and worker.proc.pid == pid:
                conn.setblocking(False)
                worker.conn = conn
                worker.last_recv = time.monotonic()
                self._bufs[conn] = bytearray()
                self._selector.register(conn, selectors.EVENT_READ, worker)
                if self.telemetry is not None:
                    self.telemetry.end(worker.hs_span, status="ok")
                return
        conn.close()  # an impostor, or a worker already buried

    def _drain(self, worker: _SocketWorker, out: list[Completion]) -> None:
        """Read whatever the worker sent; EOF/reset buries it."""
        conn = worker.conn
        buf = self._bufs[conn]
        try:
            while True:
                chunk = conn.recv(1 << 20)
                if not chunk:
                    self._bury(worker, out)
                    return
                buf.extend(chunk)
        except BlockingIOError:
            pass
        except OSError:
            self._bury(worker, out)
            return
        now = time.monotonic()
        if self.telemetry is not None:
            # gap between receives approximates the heartbeat RTT; a gap
            # well past the ping interval is a stall worth flagging.
            gap = now - worker.last_recv
            self.telemetry.metrics.histogram(
                "heartbeat_gap_s",
                HEARTBEAT_BUCKETS_S,
                worker=f"w{worker.proc.pid}",
            ).observe(gap)
            if gap > 2.5 * PING_INTERVAL_S:
                self.telemetry.instant(
                    "heartbeat_gap",
                    cat="transport",
                    lane=f"w{worker.proc.pid}",
                    gap_s=gap,
                    pid=worker.proc.pid,
                )
        worker.last_recv = now
        while len(buf) >= 4:
            length = int.from_bytes(buf[:4], "big")
            if len(buf) < 4 + length:
                break
            frame_bytes = bytes(buf[4 : 4 + length])
            del buf[: 4 + length]
            try:
                frame = json.loads(frame_bytes.decode())
            except (ValueError, UnicodeDecodeError):
                # a garbage frame is a protocol violation, not a parent
                # crash: bury the worker and let requeue/respawn recover.
                self._bury(worker, out, reason="protocol")
                return
            self._on_frame(worker, frame, out)

    def _on_frame(
        self, worker: _SocketWorker, frame: dict, out: list[Completion]
    ) -> None:
        kind = frame.get("type")
        if kind == "ping":
            return
        if kind not in ("result", "error"):
            return
        task_id = frame.get("task_id")
        if worker.task is None or worker.task.task_id != task_id:
            return  # stale reply for a task already requeued elsewhere
        worker.task = None
        self._requeues.pop(task_id, None)
        if self.telemetry is not None:
            self.telemetry.end(
                worker.assign_span,
                status="ok" if kind == "result" else "error",
            )
            worker.assign_span = -1
        # a cancelled task's reply is surfaced, not swallowed: cancel()
        # returned False for it, promising the dispatch core a completion
        # it can use to release the executor slot.  (The core ignores the
        # payload -- the sibling already won.)
        self._cancelled.discard(task_id)
        # worker-side spans ride beside the payload; old workers simply
        # never send them, and the field stays absent without telemetry.
        spans = frame.get("spans")
        if kind == "result":
            out.append(
                Completion(
                    task_id,
                    payload=frame["payload"],
                    compute_s=float(frame.get("compute_s", 0.0)),
                    spans=spans,
                )
            )
        else:
            out.append(
                Completion(
                    task_id,
                    error=RuntimeError(
                        f"socket worker failed: {frame.get('error')}"
                    ),
                    spans=spans,
                )
            )

    def _assign(self) -> None:
        for worker in self._workers:
            if not self._pending:
                return
            if worker.idle:
                task = self._pending.popleft()
                frame = {
                    "type": "task",
                    "task_id": task.task_id,
                    "kind": task.kind,
                    "params": task.params,
                    "seed": task.seed,
                }
                assign_span = -1
                if self.telemetry is not None:
                    assign_span = self.telemetry.begin(
                        "assign",
                        cat="transport",
                        parent=task.span_id,
                        lane=f"w{worker.proc.pid}",
                        task_id=task.task_id,
                        pid=worker.proc.pid,
                    )
                # the trace-context field: worker compute spans attach to
                # this assignment.  Old workers ignore unknown fields, so
                # the protocol stays compatible both ways.
                span_to_send = (
                    assign_span if assign_span >= 0 else task.span_id
                )
                if span_to_send is not None and span_to_send >= 0:
                    frame["span"] = span_to_send
                try:
                    send_frame(worker.conn, frame)
                except OSError:
                    if self.telemetry is not None:
                        self.telemetry.end(
                            assign_span, status="truncated",
                            reason="send_failed",
                        )
                    self._pending.appendleft(task)
                    self._bury(worker, [], reason="send_failed")
                    continue
                worker.task = task
                worker.assign_span = assign_span

    def _reap(self, out: list[Completion]) -> None:
        """Notice silently-exited processes and heartbeat flatlines."""
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.proc.poll() is not None and worker.conn is None:
                self._bury(worker, out, reason="exited")
            elif (
                worker.conn is not None
                and worker.task is not None
                and now - worker.last_recv > self.heartbeat_timeout_s
            ):
                self._bury(worker, out, reason="heartbeat")

    # -- Executor protocol -------------------------------------------------

    def submit(self, task: Task) -> None:
        self._pending.append(task)
        self._assign()

    def _outstanding(self) -> int:
        return len(self._pending) + sum(
            1 for w in self._workers if w.task is not None
        )

    def wait(self) -> list[Completion]:
        if self._outstanding() == 0:
            raise ExecutorError("wait() with no submitted task")
        out: list[Completion] = []
        while not out:
            if not self._workers:
                raise ExecutorError(
                    "all socket workers died and the respawn budget is spent"
                )
            if (
                not any(w.conn is not None for w in self._workers)
                and time.monotonic() - self._started
                > self.HANDSHAKE_TIMEOUT_S
            ):
                raise ExecutorError(
                    "no socket worker completed the handshake in "
                    f"{self.HANDSHAKE_TIMEOUT_S:.0f}s"
                )
            for key, _ in self._selector.select(timeout=1.0):
                if key.data is None:
                    self._accept()
                else:
                    self._drain(key.data, out)
            self._reap(out)
            self._assign()
        out.sort(key=lambda c: c.task_id)
        return out

    def cancel(self, task_id: int) -> bool:
        for task in self._pending:
            if task.task_id == task_id:
                self._pending.remove(task)
                # drop death bookkeeping too: a cancelled task must not
                # bequeath a requeue count to an unrelated later clone.
                self._requeues.pop(task_id, None)
                return True
        for worker in self._workers:
            if worker.task is not None and worker.task.task_id == task_id:
                # the worker is single-threaded and mid-cell: let it
                # finish, drop the reply on arrival.
                self._cancelled.add(task_id)
                return False
        return False

    def abandon_telemetry(self) -> None:
        """Close spans for tasks that will never report back.

        Called by the dispatch loop before it ends the parent attempt
        spans (and again from :meth:`close`, where it is a no-op if the
        dispatcher already ran it) so no executor-held span outlives its
        parent in the trace.
        """
        if self.telemetry is None:
            return
        for worker in self._workers:
            if worker.assign_span >= 0:
                self.telemetry.end(worker.assign_span, status="abandoned")
                worker.assign_span = -1
            if worker.hs_span >= 0:
                self.telemetry.end(worker.hs_span, status="abandoned")
                worker.hs_span = -1

    def close(self) -> None:
        self.abandon_telemetry()
        for worker in self._workers:
            if worker.conn is not None:
                try:
                    send_frame(worker.conn, {"type": "shutdown"})
                except OSError:
                    pass
                try:
                    self._selector.unregister(worker.conn)
                except (KeyError, ValueError):
                    pass
                worker.conn.close()
        self._selector.close()
        self._listener.close()
        deadline = time.monotonic() + 5.0
        for worker in self._workers:
            timeout = max(0.0, deadline - time.monotonic())
            try:
                worker.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                worker.proc.kill()
        self._workers.clear()
        self._pending.clear()
        self._requeues.clear()
        self._cancelled.clear()


#: executor spec names accepted by the runner / CLI.
EXECUTORS = ("inprocess", "pool", "socket")


def make_executor(
    spec: str,
    parallel: int,
    retry_policy=None,
    chaos_plan=None,
    on_event: Optional[Callable[..., None]] = None,
    telemetry=None,
):
    """Build an executor from its spec name (see :data:`EXECUTORS`).

    ``retry_policy`` supplies the transport budgets; ``chaos_plan`` (a
    :class:`~repro.faults.plan.FaultPlan` of transport specs) arms fault
    injection -- worker-side for the socket transport, via the
    :class:`~repro.runner.resilience.ChaosExecutor` wrapper for the
    others; ``on_event`` observes every recovery decision; ``telemetry``
    (a :class:`~repro.obs.runner.RunnerTelemetry`) arms transport spans
    -- only the socket executor has parent-side state worth spanning;
    pool/in-process compute spans ride completions instead.
    """
    if spec == "socket":
        return SocketExecutor(
            parallel,
            retry_policy=retry_policy,
            chaos_plan=chaos_plan,
            on_event=on_event,
            telemetry=telemetry,
        )
    if spec == "inprocess":
        inner = InProcessExecutor()
    elif spec == "pool":
        inner = PoolExecutor(parallel, retry_policy, on_event=on_event)
    else:
        raise ValueError(
            f"unknown executor {spec!r}: expected one of {EXECUTORS}"
        )
    if chaos_plan is not None:
        # imported here: resilience imports this module at load time.
        from repro.runner.resilience import ChaosExecutor

        return ChaosExecutor(inner, chaos_plan, on_event=on_event)
    return inner
