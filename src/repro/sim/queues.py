"""Producer/consumer stores.

A :class:`Store` is an unbounded FIFO queue of Python objects: ``get``
blocks while it is empty, ``put`` never blocks.  It backs message queues
between simulated components (device doorbells, NIC frames and
completion hints, TX credits, socket inboxes).

``put`` hands its item straight to the oldest waiting get, and that
get's event is the only one it schedules; with no getter waiting it
appends the item and schedules nothing.  Nothing waits on a put, so it
returns ``None`` and is never yielded.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.events import Event


class StoreGet(Event):
    __slots__ = ("_store",)

    def __init__(self, store: "Store"):
        super().__init__(store.sim, name="store-get")
        self._store = store

    def abandoned(self) -> None:
        # Waiter interrupted while blocked on an empty store: withdraw the
        # get so it cannot swallow an item meant for a live consumer (the
        # classic stale-waiter leak: a torn-down driver's CQ poller would
        # otherwise eat its replacement's wakeup hint).
        try:
            self._store._gets.remove(self)
        except ValueError:
            pass


class Store:
    """Unbounded FIFO store of items.

    At most one of ``items`` and the waiting gets is non-empty: a put
    with a getter waiting serves it, and a get with an item stored takes
    it at once.
    """

    def __init__(self, sim, name: str = "store"):
        self.sim = sim
        self.name = name
        self.items: deque[Any] = deque()
        self._gets: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Hand ``item`` to the oldest waiting get, or store it."""
        if self._gets:
            self._gets.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> StoreGet:
        """Remove one item; the returned event fires with the item."""
        ev = StoreGet(self)
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            self._gets.append(ev)
        return ev

    def try_get(self) -> Any:
        """Non-blocking get: return an item or None if empty."""
        if not self.items:
            return None
        return self.items.popleft()
