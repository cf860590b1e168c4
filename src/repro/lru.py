"""A small least-recently-used cache.

The bidirectional-search evaluation strategy of Section 4 keeps "the most
frequently asked items" in a hashmap-indexed cache with LRU replacement; this
module provides that cache.  It is deliberately tiny, dependency-free and
imports nothing of ``repro``: every layer — ``graph/`` included, which must
not import ``matching/`` — can hold one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterator, Optional


class LruCache:
    """A bounded mapping that evicts the least recently used entry.

    Parameters
    ----------
    capacity:
        Maximum number of entries; ``None`` disables eviction (unbounded).
    """

    __slots__ = ("_capacity", "_store", "hits", "misses", "evictions")

    def __init__(self, capacity: Optional[int] = 10000):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._capacity = capacity
        self._store: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency on a hit."""
        if key in self._store:
            self.hits += 1
            self._store.move_to_end(key)
            return self._store[key]
        self.misses += 1
        return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or update an entry, evicting the oldest one if full."""
        if key in self._store:
            self._store.move_to_end(key)
        self._store[key] = value
        if self._capacity is not None and len(self._store) > self._capacity:
            self._store.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._store)

    def clear(self) -> None:
        self._store.clear()
        self.hits = self.misses = self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"LruCache(size={len(self._store)}, capacity={self._capacity}, "
            f"hit_rate={self.hit_rate:.2f})"
        )
