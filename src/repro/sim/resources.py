"""Capacity-constrained resources.

A :class:`Resource` models anything with a fixed number of slots — a DMA
engine with N channels, a link arbiter, an accelerator with one execution
context.  Processes ``yield resource.request()`` to acquire a slot and call
``resource.release(req)`` (or use the request as a context manager) to give
it back.  Waiting requests are granted in arrival order.
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

    __slots__ = ("resource", "_released", "_withdrawn")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim, name=f"request:{resource.name}")
        self.resource = resource
        self._released = False
        # Lazily canceled (tombstoned) while still sitting in the queue.
        self._withdrawn = False

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        self.resource._cancel(self)


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
        # Withdrawn requests still occupying queue entries (lazy cancel).
        self._tombstones = 0

    # -- public API -----------------------------------------------------

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return sum(
            1 for r in self._waiting
            if not r.triggered and not r._withdrawn
        )

    def request(self) -> Request:
        """Ask for one slot; the returned event fires when granted."""
        req = Request(self)
        self._waiting.append(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a previously-granted slot."""
        if request._released:
            return
        if request in self._users:
            self._users.remove(request)
            request._released = True
            self._grant()
        elif not request.triggered:
            # Releasing an ungranted request == cancelling it.
            self._cancel(request)
        else:
            raise SimError(f"{request!r} does not hold {self.name}")

    # -- internals ------------------------------------------------------

    def _cancel(self, request: Request) -> None:
        """Withdraw a queued request via a lazy tombstone.

        Cancellation is O(1): the queue entry stays put, flagged, and is
        discarded when :meth:`_grant` pops it.  Heavy hedge/budget-denial
        churn cancels far more requests than it grants, so a compaction
        runs only when tombstones outnumber live entries.
        """
        if request.triggered:
            raise SimError("cannot cancel a granted request; release it")
        if request._withdrawn:
            return
        request._withdrawn = True
        self._tombstones += 1
        if self._tombstones > 64 and self._tombstones * 2 > len(self._waiting):
            self._waiting = deque(
                r for r in self._waiting if not r._withdrawn
            )
            self._tombstones = 0

    def _grant(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            req = self._waiting.popleft()
            if req._withdrawn:
                self._tombstones -= 1
                continue
            if req.triggered:
                continue
            self._users.append(req)
            req.succeed(req)

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name!r} {self.count}/{self.capacity}"
            f" queued={self.queued}>"
        )
