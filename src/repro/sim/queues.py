"""Producer/consumer stores.

A :class:`Store` is an asynchronous queue of Python objects with optional
capacity: ``put`` blocks when full, ``get`` blocks when empty.  It backs
message queues between simulated components (agent mailboxes, NIC
completion queues, orchestrator work queues).

:class:`FilterStore` additionally lets consumers wait for an item matching
a predicate, which models tag-matched completion (e.g. "wait for the
completion of request id 17").
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.sim.events import Event


class StorePut(Event):
    __slots__ = ("item", "_store")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim, name="store-put")
        self.item = item
        self._store = store

    def abandoned(self) -> None:
        # Waiter interrupted while blocked on a full store: withdraw the
        # pending put so the item is not inserted on a dead one's behalf.
        try:
            self._store._puts.remove(self)
        except ValueError:
            pass


class StoreGet(Event):
    __slots__ = ("predicate", "_store")

    def __init__(self, store: "Store",
                 predicate: Optional[Callable[[Any], bool]] = None):
        super().__init__(store.sim, name="store-get")
        self.predicate = predicate
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
    """Unordered-capacity FIFO store of items."""

    def __init__(self, sim, capacity: float = float("inf"),
                 name: str = "store"):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._puts: deque[StorePut] = deque()
        self._gets: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the returned event fires once it is stored."""
        ev = StorePut(self, item)
        self._puts.append(ev)
        self._settle()
        return ev

    def get(self) -> StoreGet:
        """Remove one item; the returned event fires with the item."""
        ev = StoreGet(self)
        self._gets.append(ev)
        self._settle()
        return ev

    def try_get(self) -> Any:
        """Non-blocking get: return an item or None if empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        self._settle()
        return item

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Admit pending puts while there is room.
            while self._puts and len(self.items) < self.capacity:
                put = self._puts.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            # Serve pending gets while items are available.
            served = self._serve_gets()
            progressed = progressed or served

    def _serve_gets(self) -> bool:
        served = False
        while self._gets and self.items:
            get = self._gets.popleft()
            get.succeed(self.items.popleft())
            served = True
        return served


class FilterStore(Store):
    """A store whose consumers may wait for items matching a predicate."""

    def get(self, predicate: Optional[Callable[[Any], bool]] = None
            ) -> StoreGet:
        """Wait for an item for which ``predicate(item)`` is true.

        ``None`` matches any item.
        """
        ev = StoreGet(self, predicate)
        self._gets.append(ev)
        self._settle()
        return ev

    def _serve_gets(self) -> bool:
        served = False
        # Repeatedly scan waiting gets against stored items; order of gets
        # is preserved, each get takes the earliest matching item.
        changed = True
        while changed:
            changed = False
            for get in list(self._gets):
                match_idx = None
                for idx, item in enumerate(self.items):
                    if get.predicate is None or get.predicate(item):
                        match_idx = idx
                        break
                if match_idx is not None:
                    item = self.items[match_idx]
                    del self.items[match_idx]
                    self._gets.remove(get)
                    get.succeed(item)
                    served = changed = True
        return served
