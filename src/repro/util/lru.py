"""A bounded, thread-safe least-recently-used memo with counters.

The process-wide artifact memos — the tracer's trace cache and the
engine's row-level convolve memo — are instances of :class:`BoundedLRU`,
so each holds at most ``max_size`` entries however long the process
serves, and each reports the same five counters on ``/healthz``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["BoundedLRU"]


class BoundedLRU:
    """Bounded LRU map: ``get`` counts hits and misses, ``put`` evicts.

    ``None`` is not a storable value (``get`` returns it for a miss).
    All state shares one lock, so concurrent request threads may read
    and fill the same memo.  ``max_size`` is read on every ``put``;
    lowering it trims the memo at the next insertion.
    """

    def __init__(self, max_size: int):
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size!r}")
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, *, counted: bool = True):
        """The value under ``key`` (now most recently used), or None.

        ``counted=False`` leaves the hit and miss counters alone, for a
        caller that tries more than one key per lookup and records the
        lookup's outcome once, with :meth:`tally`.
        """
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += counted
                return None
            self._data.move_to_end(key)
            self.hits += counted
            return value

    def tally(self, hit: bool) -> None:
        """Count one lookup as a hit or a miss."""
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def __contains__(self, key) -> bool:
        """Whether ``key`` is stored; recency and counters are untouched."""
        with self._lock:
            return key in self._data

    def put(self, key, value) -> None:
        """Store ``value`` as most recently used, evicting the oldest."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.max_size:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry; the counters keep counting."""
        with self._lock:
            self._data.clear()

    def counters(self) -> dict:
        """``size``, ``max_size``, ``hits``, ``misses`` and ``evictions``."""
        with self._lock:
            return {
                "size": len(self._data),
                "max_size": self.max_size,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
