"""The matching stack's search caches: :class:`~repro.lru.LruCache` under its
historical name here, and the capacities of the per-query memos.
"""

from __future__ import annotations

from repro.lru import LruCache  # noqa: F401  (re-exported: repro.matching.cache.LruCache)
from repro.session.defaults import DEFAULT_CACHE_CAPACITY

#: Default capacity of the per-query search caches (PathMatcher's BFS
#: memos).  An alias of
#: :data:`repro.session.defaults.DEFAULT_CACHE_CAPACITY` — the single source
#: of truth — kept under its historical name for the matching stack.
DEFAULT_SEARCH_CACHE_CAPACITY = DEFAULT_CACHE_CAPACITY
