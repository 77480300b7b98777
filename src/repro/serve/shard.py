"""Consistent-hash sharding of trace identities across fleet workers.

The fleet keeps each worker's in-memory caches *warm for a stable slice*
of the workload: a given (application, cpus) trace identity always routes
to the same worker, so its loaded trace, probe bundles and row-level
convolve memo are hot in exactly one process instead of being re-warmed
N times.  The shard key is the store's own content digest
(:func:`repro.tracing.store.trace_key`) — "which worker owns this trace"
and "which file holds it" are literally the same string.

:class:`ShardRing` is a textbook consistent-hash ring: every worker
contributes :data:`DEFAULT_VNODES` virtual nodes (points on a 64-bit hash
circle), and a key belongs to the first virtual node clockwise from the
key's own hash.  Two properties carry the fleet semantics:

* **balance** — with 64 vnodes per worker, each worker owns the same
  share of hash space within a few tens of percent (the shard tests pin
  ±25%), so no worker's cache is systematically overloaded;
* **minimal movement** — removing a worker reassigns *only* the keys that
  worker owned (they fall through to the next vnode clockwise); every
  other key keeps its owner, so a worker death never cold-starts the
  survivors' caches.
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["ShardRing", "DEFAULT_VNODES"]

#: Virtual nodes per worker: enough for ±25% balance, cheap to rebuild.
DEFAULT_VNODES = 64


def _point(token: str) -> int:
    """A token's position on the 64-bit hash circle."""
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big"
    )


class ShardRing:
    """Consistent-hash ring mapping shard keys to worker names.

    Parameters
    ----------
    nodes:
        Initial worker names.
    vnodes:
        Virtual nodes per worker (see :data:`DEFAULT_VNODES`).
    """

    def __init__(self, nodes: tuple = (), *, vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes!r}")
        self.vnodes = vnodes
        self._points: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[str, ...]:
        """Current members, sorted for stable display."""
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------------
    def add(self, node: str) -> None:
        """Join ``node``; keys it now owns move *to* it, nothing else."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.vnodes):
            point = _point(f"{node}#{i}")
            at = bisect.bisect_left(self._points, point)
            self._points.insert(at, point)
            self._owners.insert(at, node)

    def remove(self, node: str) -> None:
        """Leave ``node``; only the keys it owned change hands."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    def node_for(self, key: str) -> str:
        """The worker owning ``key`` (first vnode clockwise of its hash)."""
        if not self._points:
            raise LookupError("shard ring is empty: no live workers")
        at = bisect.bisect_right(self._points, _point(key))
        if at == len(self._points):
            at = 0  # wrap past twelve o'clock
        return self._owners[at]

    # ------------------------------------------------------------------
    def shares(self) -> dict[str, float]:
        """Fraction of the hash circle each worker owns (``/healthz``)."""
        if not self._points:
            return {}
        total = 1 << 64
        owned: dict[str, int] = {node: 0 for node in self._nodes}
        prev = self._points[-1] - total  # arc wrapping twelve o'clock
        for point, owner in zip(self._points, self._owners):
            owned[owner] += point - prev
            prev = point
        return {node: arc / total for node, arc in sorted(owned.items())}
