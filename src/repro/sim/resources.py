"""Counted resources with FIFO queueing.

:class:`Resource` models a pool of ``capacity`` interchangeable slots
(e.g. a logical CPU with capacity 1).  Requests are granted strictly in
FIFO order, which is what makes quantum-by-quantum CPU sharing in
:mod:`repro.oskernel` behave as round-robin.

Every logical CPU of a simulated node is one :class:`Resource`, so a
1,000-node sweep holds about 17,000 of them.  The class therefore
has ``__slots__`` and creates its wait queue only when a claimant finds
every slot taken: an lcpu nobody waits on never pays for a ``deque``.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.core import Environment, Event, SimulationError


class Preempted(Exception):
    """Cause payload used when a resource holder is forcibly evicted."""

    def __init__(self, by: Any = None):
        super().__init__(by)

    @property
    def by(self) -> Any:
        return self.args[0]


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "tag")

    def __init__(self, resource: "Resource", tag: Any = None):
        super().__init__(resource.env)
        self.resource = resource
        self.tag = tag
        resource._admit(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request (no-op if already granted)."""
        self.resource._cancel(self)


class Resource:
    """A FIFO resource with integer capacity."""

    __slots__ = ("env", "capacity", "name", "_users", "_queue")

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: list[Request] = []
        #: waiting requests; None until the first claimant has to wait.
        self._queue: deque[Request] | None = None

    @property
    def count(self) -> int:
        """Number of granted slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        queue = self._queue
        return len(queue) if queue is not None else 0

    def request(self, tag: Any = None) -> Request:
        return Request(self, tag)

    def release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
            self._grant_next()
        else:
            # Releasing an un-granted request equals cancelling it.
            self._cancel(request)

    def acquire(self, tag: Any = None):
        """Generator helper: ``req = yield from res.acquire()``."""
        req = self.request(tag)
        yield req
        return req

    # -- internals ---------------------------------------------------------

    def _admit(self, request: Request) -> None:
        # Requests wait only while every slot is held, so a free slot
        # means nobody is ahead of the newcomer.
        if len(self._users) < self.capacity:
            self._users.append(request)
            request.succeed(request)
        elif self._queue is None:
            self._queue = deque((request,))
        else:
            self._queue.append(request)

    def _cancel(self, request: Request) -> None:
        if self._queue is None:
            return
        try:
            self._queue.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        queue = self._queue
        while queue and len(self._users) < self.capacity:
            req = queue.popleft()
            self._users.append(req)
            req.succeed(req)
