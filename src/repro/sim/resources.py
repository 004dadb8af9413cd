"""Capacity-constrained resources.

A :class:`Resource` models anything with a fixed number of slots — a DMA
engine with N channels, a link arbiter, an accelerator with one execution
context.  Processes ``yield resource.request()`` to acquire a slot and call
``resource.release(req)`` (or use the request as a context manager) to give
it back.  Waiting requests are granted in arrival order; releasing a
request that was never granted (an interrupted waiter leaving its
``with`` block) withdraws it from the queue.
"""

from __future__ import annotations

from collections import deque

from repro.sim.errors import SimError
from repro.sim.events import Event


class Request(Event):
    """A pending acquisition of one resource slot.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req
            ... hold the slot ...
        # released automatically
    """

    __slots__ = ("resource", "_released")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim, name=f"request:{resource.name}")
        self.resource = resource
        self._released = False

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """A resource with ``capacity`` identical slots, FIFO grant order."""

    def __init__(self, sim, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: list[Request] = []
        self._waiting: deque[Request] = deque()

    # -- public API -----------------------------------------------------

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    def request(self) -> Request:
        """Ask for one slot; the returned event fires when granted."""
        req = Request(self)
        self._waiting.append(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot, or withdraw a request still waiting.

        A withdrawn request leaves the queue and never triggers.
        Releasing a request twice is a no-op.
        """
        if request._released:
            return
        if request in self._users:
            self._users.remove(request)
            request._released = True
            self._grant()
        elif not request.triggered and request.resource is self:
            self._waiting.remove(request)
            request._released = True
        else:
            raise SimError(f"{request!r} does not hold {self.name}")

    # -- internals ------------------------------------------------------

    def _grant(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            req = self._waiting.popleft()
            self._users.append(req)
            req.succeed(req)

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name!r} {self.count}/{self.capacity}"
            f" queued={len(self._waiting)}>"
        )
