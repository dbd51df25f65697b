"""Byte-capacity LRU mapping: the eviction core of the serving result
cache (:class:`repro.serve.cache.ForecastCache`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional

__all__ = ["LruBytes"]


class LruBytes:
    """Byte-capacity LRU mapping.

    Recency refresh on hit, eviction of the least-recently-used entries
    until a new value fits, bypass of values larger than the whole
    cache.  Hit/miss accounting stays with the caller.

    Parameters
    ----------
    capacity_bytes: total byte budget.
    size_of: value → size in bytes.
    """

    def __init__(self, capacity_bytes: int, size_of: Callable[[Any], int]):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity_bytes)
        self._size_of = size_of
        self._items: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._used = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value (refreshing recency) or ``None``."""
        if key not in self._items:
            return None
        self._items.move_to_end(key)
        return self._items[key]

    def put(self, key: Hashable, value: Any) -> int:
        """Insert ``value``; returns how many entries were evicted.

        A value larger than the whole cache is not stored (and evicts
        nothing) — one oversized read must not flush the cache.
        """
        nbytes = self._size_of(value)
        if nbytes > self.capacity:
            return 0
        old = self._items.pop(key, None)
        if old is not None:
            self._used -= self._size_of(old)
        evictions = 0
        while self._used + nbytes > self.capacity and self._items:
            _, evicted = self._items.popitem(last=False)
            self._used -= self._size_of(evicted)
            evictions += 1
        self._items[key] = value
        self._used += nbytes
        return evictions

    def clear(self) -> None:
        self._items.clear()
        self._used = 0
