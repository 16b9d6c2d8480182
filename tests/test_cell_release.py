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
from repro.runner.worker import recv_frame, send_frame, serve

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
