"""Socket worker: the far side of the :class:`SocketExecutor` protocol.

One worker is one subprocess started as ``python -m repro.runner.worker
--connect HOST:PORT --token TOKEN``.  It dials back into the parent's
loopback listener, authenticates with the one-shot token, and then sits
in a task loop: receive a cell spec, compute it with
:func:`repro.runner.cells.execute_cell`, send the payload back.  The
parent never trusts a worker with anything but cell specs, and a worker
never holds state between tasks -- killing one mid-cell loses nothing
but the in-flight computation, which the parent requeues.  That holds
for memory too: once a reply is on the wire the worker frees the cell's
simulation (:func:`~repro.runner.cells.release_cell`).

A worker started through :func:`main` also freezes its heap out of the
collector (``gc.freeze``), once, right after the first cell's release.
Imports are lazy, so at start-up the worker holds little more than this
module; the sim, hw, oskernel, workload and cluster modules arrive with
the first cell.  Frozen after it, they stay out of the full collection
each later ``release_cell`` makes, and nothing of the first cell's
simulation is frozen, because that collection has just freed it.
:func:`serve` called directly (an in-process loop, as in the tests)
never freezes: its host's heap must stay collectable.

Wire protocol
-------------

Length-prefixed JSON frames: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON (msgpack would shave bytes,
but the payloads already are canonical-JSON material and the stdlib is
dependency-free).  Frame types:

* worker -> parent: ``hello`` (token, pid), ``ping`` (heartbeat, sent
  every couple of seconds by a daemon thread -- *also while a cell is
  computing*, so a long cell never reads as a flatline),
  ``result`` (task_id, payload, compute_s), ``error`` (task_id, error).
* parent -> worker: ``task`` (task_id, kind, params, seed),
  ``shutdown``.

When runner telemetry is on, the ``task`` frame carries an optional
``span`` trace-context field and replies carry a ``spans`` list of
worker-side compute spans (see :func:`_run_task`).  Both fields are
ignorable: an old worker drops ``span``, an old parent drops ``spans``.

JSON round-trips every payload float exactly (``repr``-based shortest
form both ways), so a payload computed by a socket worker is
byte-identical to the same cell computed in-process -- the property the
cross-executor report ``cmp`` steps in CI pin.

Chaos hook
----------

``--faults`` hands the worker the transport specs of a
:class:`~repro.faults.plan.FaultPlan` (canonical JSON).  Faults are
drawn from per-worker per-kind RNG channels (``worker{N}/{kind}``), so
a chaos run replays bit-identically: hard exits mid-task
(``worker_kill``), refusing to dial back (``connect_refuse``), dying
mid-reply-frame (``frame_truncate``), sending a non-JSON frame
(``frame_garbage``), going heartbeat-silent (``heartbeat_stall``), and
delaying replies (``worker_slow``).  Injection happens *here*, in the
real worker process, so the parent's bury/requeue/respawn machinery is
exercised end to end rather than simulated.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import struct
import sys
import threading
import time

#: frame length prefix: 4-byte big-endian unsigned.
_LEN = struct.Struct(">I")

#: refuse absurd frames (a corrupted length prefix must not allocate GiB).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: seconds between heartbeat pings from the pinger thread.
PING_INTERVAL_S = 2.0


def send_frame(sock: socket.socket, obj: dict) -> None:
    """Serialise ``obj`` and write one length-prefixed frame."""
    data = json.dumps(obj, separators=(",", ":")).encode()
    sock.sendall(_LEN.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, or None on clean EOF."""
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame, or None on clean EOF before a length prefix."""
    head = _recv_exact(sock, _LEN.size)
    if head is None:
        return None
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds protocol limit")
    body = _recv_exact(sock, length)
    if body is None:
        raise ConnectionError("peer closed mid-frame")
    return json.loads(body.decode())


def _canonical_params(params: dict) -> dict:
    """Undo JSON's tuple->list coercion so cell bodies see pickled shapes."""
    return {
        k: tuple(v) if isinstance(v, list) else v for k, v in params.items()
    }


def _run_task(frame: dict) -> dict:
    """Execute one cell spec; always returns a reply frame.

    When the task frame carries a ``span`` trace-context field (the
    parent-side span id of this assignment), the reply grows a
    ``spans`` list with this worker's compute span -- *beside*, never
    inside, the payload, so payload bytes (and hence cache entries and
    merged reports) are identical with tracing on or off.  Workers
    predating the field never see it; parents tolerate replies without
    ``spans`` -- the protocol is compatible in both directions.
    """
    from repro.runner.cells import Cell, execute_cell

    task_id = frame["task_id"]
    span_parent = frame.get("span")
    w0 = time.time()
    try:
        cell = Cell.make(
            frame["kind"], _canonical_params(frame["params"]), frame["seed"]
        )
        t0 = time.perf_counter()
        payload = execute_cell(cell)
        reply = {
            "type": "result",
            "task_id": task_id,
            "payload": payload,
            "compute_s": time.perf_counter() - t0,
        }
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        reply = {"type": "error", "task_id": task_id, "error": repr(exc)}
    if span_parent is not None:
        reply["spans"] = [{
            "name": "compute",
            "cat": "worker",
            "parent": span_parent,
            "t0": w0,
            "t1": time.time(),
            "status": "ok" if reply["type"] == "result" else "error",
            "args": {"pid": os.getpid(), "kind": frame.get("kind")},
        }]
    return reply


class _Pinger:
    """Daemon thread that heartbeats the parent every PING_INTERVAL_S.

    Pings flow during computation too -- the fix for the false-bury bug
    where a cell longer than the parent's ``heartbeat_timeout_s`` read
    as a dead worker.  All frame writes (pings here, replies in the main
    loop) share ``lock`` so frames never interleave on the wire.
    ``stall_until`` (monotonic seconds) silences the thread -- the
    ``heartbeat_stall`` fault uses it to look exactly like a flatlined
    worker.
    """

    def __init__(self, sock: socket.socket, lock: threading.Lock):
        self._sock = sock
        self.lock = lock
        self.stall_until = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def _loop(self) -> None:
        while not self._stop.wait(PING_INTERVAL_S):
            if time.monotonic() < self.stall_until:
                continue
            try:
                with self.lock:
                    send_frame(self._sock, {"type": "ping"})
            except OSError:
                return  # the parent is gone; the main loop will notice


class _WorkerChaos:
    """Worker-side fault injection driven by per-worker RNG channels."""

    _KINDS = (
        "worker_kill",
        "frame_truncate",
        "frame_garbage",
        "heartbeat_stall",
        "worker_slow",
    )

    def __init__(self, plan, worker_index: int):
        from repro.faults.plan import FaultChannel

        scope = f"worker{worker_index}"
        self._connect = FaultChannel.of(plan, "connect_refuse", scope)
        self._channels = {
            kind: FaultChannel.of(plan, kind, scope) for kind in self._KINDS
        }

    def refuse_connect(self) -> bool:
        return self._connect.draw() is not None

    def on_task(self) -> dict:
        """Draw every per-task channel once; return the actions to take."""
        actions: dict = {}
        for kind in self._KINDS:
            spec = self._channels[kind].draw()
            if spec is not None:
                actions[kind] = spec
        return actions


def _send_truncated(sock: socket.socket, reply: dict) -> None:
    """Send a deliberately torn frame: prefix plus half the body."""
    data = json.dumps(reply, separators=(",", ":")).encode()
    sock.sendall(_LEN.pack(len(data)) + data[: max(1, len(data) // 2)])


def serve(
    host: str,
    port: int,
    token: str,
    faults: dict | None = None,
    worker_index: int = 0,
    freeze: bool = False,
) -> int:
    """Connect back to the parent and run the task loop until shutdown.

    With ``freeze`` the heap is frozen once, after the first cell's
    release (see the module docstring).
    """
    from repro.runner.cells import release_cell

    chaos = None
    if faults:
        from repro.faults.plan import FaultPlan

        chaos = _WorkerChaos(FaultPlan.coerce(faults), worker_index)
        if chaos.refuse_connect():
            # injected connect refusal: die before dialing back, the way
            # a worker landing on a dead host would.  The parent reaps
            # the silent exit and respawns.
            return 3

    sock = socket.create_connection((host, port), timeout=30.0)
    send_lock = threading.Lock()
    pinger = _Pinger(sock, send_lock)
    try:
        with send_lock:
            send_frame(
                sock, {"type": "hello", "token": token, "pid": os.getpid()}
            )
        pinger.start()
        while True:
            frame = recv_frame(sock)
            if frame is None or frame.get("type") == "shutdown":
                return 0
            if frame.get("type") != "task":
                continue
            actions = chaos.on_task() if chaos is not None else {}
            if "worker_kill" in actions:
                # a hard exit mid-cell: no reply, no cleanup, exactly
                # what SIGKILL looks like from the parent's side.
                os._exit(9)
            if "heartbeat_stall" in actions:
                stall_s = actions["heartbeat_stall"].duration_us / 1e6
                pinger.stall_until = time.monotonic() + stall_s
                time.sleep(stall_s)
            reply = _run_task(frame)
            if "worker_slow" in actions:
                time.sleep(actions["worker_slow"].duration_us / 1e6)
            with send_lock:
                if "frame_truncate" in actions:
                    _send_truncated(sock, reply)
                    os._exit(9)  # die mid-frame: the parent sees torn EOF
                if "frame_garbage" in actions:
                    # the parent buries us for the violation
                    garbage = b"\xff not json \xff"
                    sock.sendall(_LEN.pack(len(garbage)) + garbage)
                else:
                    send_frame(sock, reply)
            release_cell()
            if freeze:
                gc.freeze()
                freeze = False
    finally:
        pinger.stop()
        sock.close()


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--token", required=True)
    parser.add_argument(
        "--faults",
        default=None,
        help="canonical-JSON FaultPlan with transport specs",
    )
    parser.add_argument("--worker-index", type=int, default=0)
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    faults = json.loads(args.faults) if args.faults else None
    try:
        return serve(
            host,
            int(port),
            args.token,
            faults=faults,
            worker_index=args.worker_index,
            freeze=True,
        )
    except (ConnectionError, OSError):
        # the parent vanished; there is nobody left to report to.
        return 1


if __name__ == "__main__":
    sys.exit(main())
