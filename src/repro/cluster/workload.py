"""VM arrival streams."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.cluster.vmtypes import VmCatalog


@dataclass(frozen=True)
class VmRequest:
    """One VM to place."""

    vm_id: int
    type_name: str
    demand: ResourceVector


class VmStream:
    """Seeded, reproducible stream of VM requests from a catalog."""

    def __init__(self, catalog: VmCatalog, seed: int = 0):
        self.catalog = catalog
        self.rng = np.random.default_rng(seed)
        self._next_id = 0

    def next(self) -> VmRequest:
        vm_type = self.catalog.sample(self.rng)
        vm = VmRequest(self._next_id, vm_type.name, vm_type.demand)
        self._next_id += 1
        return vm

    def take(self, n: int) -> list[VmRequest]:
        return [self.next() for _ in range(n)]

    def __iter__(self) -> Iterator[VmRequest]:
        while True:
            yield self.next()
