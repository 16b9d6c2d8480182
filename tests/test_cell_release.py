"""Every executor path frees a cell's simulation before the next task.

A simulation is a web of reference cycles, so without an explicit
collection at the cell boundary it survives until CPython's next full
collection and a worker carries the garbage of earlier cells.  These
tests pin the release rule without any RSS threshold: a weakref to every
``Cluster`` and ``System`` a cell built must be dead by the time the
next task starts, and a follow-up collection must find none of the
cell's objects.  They drive the in-process ``_execute_task`` path, the
``_pool_worker`` body and the socket worker's task loop, each in this
process so the weakrefs can see the objects.

A socket worker started through ``main`` also freezes its heap once,
after the first cell's release, when the cell stack is imported; the
freeze tests pin that order and that ``serve`` alone never freezes.
"""

from __future__ import annotations

import gc
import socket
import threading
import weakref

import pytest

from repro.cluster.cluster import Cluster
from repro.oskernel.system import System
from repro.runner import cells
from repro.runner.executors import Task, _execute_task, _pool_worker
from repro.runner.worker import main, recv_frame, send_frame, serve

#: a cluster cell small enough to run in well under a second.
PARAMS = {
    "policy": "score",
    "n_nodes": 2,
    "n_jobs": 3,
    "duration_us": 2_000.0,
}
SEEDS = (1, 2, 3)


class _CellTracker:
    """Weakrefs to every Cluster/System built, checked at each task start."""

    def __init__(self, monkeypatch):
        self.refs: list[weakref.ref] = []
        #: per task start: how many objects of earlier cells were alive.
        self.alive_at_start: list[int] = []
        for cls in (Cluster, System):
            init = cls.__init__

            def tracked(obj, *args, _init=init, **kwargs):
                _init(obj, *args, **kwargs)
                self.refs.append(weakref.ref(obj))

            monkeypatch.setattr(cls, "__init__", tracked)
        execute_cell = cells.execute_cell

        def checked(cell):
            self.alive_at_start.append(self.alive())
            return execute_cell(cell)

        monkeypatch.setattr(cells, "execute_cell", checked)

    def alive(self) -> int:
        return sum(ref() is not None for ref in self.refs)


def _repro_garbage() -> list[str]:
    """Types of the ``repro`` objects a full collection finds unreachable."""
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        types = {type(obj) for obj in gc.garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    return sorted(t.__qualname__ for t in types if t.__module__.startswith("repro."))


@pytest.fixture
def tracker(monkeypatch):
    gc.collect()  # start from a heap without earlier tests' garbage
    return _CellTracker(monkeypatch)


def _assert_released(tracker: _CellTracker) -> None:
    assert tracker.alive_at_start == [0] * len(SEEDS)
    # every cell really built a cluster and its nodes' systems
    assert len(tracker.refs) >= len(SEEDS) * (1 + PARAMS["n_nodes"])
    assert tracker.alive() == 0
    assert _repro_garbage() == []


def test_execute_task_frees_the_cell_before_the_next_task(tracker):
    for i, seed in enumerate(SEEDS):
        done = _execute_task(Task(i, "cluster_sweep", PARAMS, seed))
        assert done.ok, done.error
        assert tracker.alive() == 0
    _assert_released(tracker)


def test_pool_worker_body_frees_the_cell_before_returning(tracker):
    for seed in SEEDS:
        payload, compute_s, _ = _pool_worker(("cluster_sweep", PARAMS, seed, None))
        assert payload["n_nodes"] == PARAMS["n_nodes"] and compute_s > 0
        assert tracker.alive() == 0
    _assert_released(tracker)


def test_socket_task_loop_frees_each_cell_after_its_reply(tracker):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
        loop = threading.Thread(
            target=serve, args=("127.0.0.1", port, "tok"), daemon=True
        )
        loop.start()
        conn, _ = listener.accept()
        with conn:
            assert recv_frame(conn)["type"] == "hello"
            for i, seed in enumerate(SEEDS):
                task = {
                    "type": "task",
                    "task_id": i,
                    "kind": "cluster_sweep",
                    "params": PARAMS,
                    "seed": seed,
                }
                send_frame(conn, task)
                reply = recv_frame(conn)
                while reply["type"] == "ping":
                    reply = recv_frame(conn)
                assert reply["type"] == "result", reply
            send_frame(conn, {"type": "shutdown"})
            loop.join(timeout=30)
    assert not loop.is_alive()
    _assert_released(tracker)


def _drive(target, n_tasks: int) -> list[dict]:
    """Run a worker loop in a thread through ``n_tasks`` sleep cells."""
    replies = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
        loop = threading.Thread(target=target, args=(port,), daemon=True)
        loop.start()
        conn, _ = listener.accept()
        with conn:
            assert recv_frame(conn)["type"] == "hello"
            for i in range(n_tasks):
                task = {
                    "type": "task",
                    "task_id": i,
                    "kind": "sleep",
                    "params": {"tag": str(i)},
                    "seed": i,
                }
                send_frame(conn, task)
                reply = recv_frame(conn)
                while reply["type"] == "ping":
                    reply = recv_frame(conn)
                assert reply["type"] == "result", reply
                # held, so a second freeze would have new objects to take
                replies.append(reply)
            send_frame(conn, {"type": "shutdown"})
            loop.join(timeout=30)
    assert not loop.is_alive()
    return replies


@pytest.fixture
def freeze_log(monkeypatch):
    """Log each release (with the freeze count at entry) and each freeze."""
    gc.unfreeze()
    log: list[tuple[str, int]] = []
    release, freeze = cells.release_cell, gc.freeze

    def logged_release():
        log.append(("release", gc.get_freeze_count()))
        release()

    def logged_freeze():
        log.append(("freeze", gc.get_freeze_count()))
        freeze()

    monkeypatch.setattr(cells, "release_cell", logged_release)
    monkeypatch.setattr(gc, "freeze", logged_freeze)
    yield log
    gc.unfreeze()


def test_main_freezes_once_after_the_first_cells_release(freeze_log):
    _drive(lambda port: main(["--connect", f"127.0.0.1:{port}", "--token", "t"]), 3)
    events = [event for event, _ in freeze_log]
    assert events == ["release", "freeze", "release", "release"]
    counts = [count for _, count in freeze_log]
    # nothing was frozen at start-up or before the first cell
    assert counts[:2] == [0, 0]
    assert counts[2] > 0 and counts[3] > 0
    assert gc.get_freeze_count() > 0


def test_serve_never_freezes(freeze_log):
    _drive(lambda port: serve("127.0.0.1", port, "t"), 3)
    assert freeze_log == [("release", 0)] * 3
    assert gc.get_freeze_count() == 0
