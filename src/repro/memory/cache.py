"""Set-associative LRU cache simulator.

This is the tracing substrate: MetaSim Tracer replays sampled address
streams through a :class:`MultiLevelCache` configured from the *base*
machine's hierarchy to estimate per-block locality, exactly as the paper's
tracer observed address streams on the NAVO p690.

Replay is batched: :meth:`SetAssociativeCache.simulate` decomposes the whole
stream into (set, tag) pairs in one vectorised pass and replays each set's
subsequence with a short LRU scan, and :meth:`MultiLevelCache.simulate`
feeds each level only the references that missed every nearer level.  Both
are exact — same hit masks, counters and final tag state as the
per-reference :meth:`SetAssociativeCache.access` walk they replace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.machines.spec import MachineSpec
from repro.util.validation import check_positive

__all__ = ["SetAssociativeCache", "MultiLevelCache", "CacheStats"]


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class SetAssociativeCache:
    """One set-associative cache level with true-LRU replacement.

    Parameters
    ----------
    size_bytes:
        Total capacity; must be ``ways * line_bytes * 2**k`` for integer k.
    line_bytes:
        Line (block) size; must be a power of two.
    ways:
        Associativity.
    """

    def __init__(self, size_bytes: int, line_bytes: int = 64, ways: int = 4):
        size_bytes = int(check_positive("size_bytes", size_bytes))
        line_bytes = int(check_positive("line_bytes", line_bytes))
        ways = int(check_positive("ways", ways))
        if not _is_power_of_two(line_bytes):
            raise ValueError(f"line_bytes must be a power of two, got {line_bytes}")
        n_sets, rem = divmod(size_bytes, line_bytes * ways)
        if rem or n_sets == 0:
            raise ValueError(
                f"size {size_bytes} is not divisible into sets of "
                f"{ways} ways x {line_bytes} B lines"
            )
        if not _is_power_of_two(n_sets):
            raise ValueError(f"number of sets must be a power of two, got {n_sets}")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = n_sets
        self._set_mask = n_sets - 1
        self._line_shift = line_bytes.bit_length() - 1
        # tag -1 marks an empty way; _stamp holds a per-access LRU clock.
        self._tags = np.full((n_sets, ways), -1, dtype=np.int64)
        self._stamp = np.zeros((n_sets, ways), dtype=np.int64)
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        """Clear contents and statistics."""
        self._tags.fill(-1)
        self._stamp.fill(0)
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Touch ``address``; return True on hit, False on miss (line filled)."""
        line = int(address) >> self._line_shift
        set_idx = line & self._set_mask
        tag = line >> (self.n_sets.bit_length() - 1)
        self._clock += 1
        tags = self._tags[set_idx]
        hit_ways = np.nonzero(tags == tag)[0]
        if hit_ways.size:
            self._stamp[set_idx, hit_ways[0]] = self._clock
            self.hits += 1
            return True
        # miss: evict LRU way
        victim = int(np.argmin(self._stamp[set_idx]))
        tags[victim] = tag
        self._stamp[set_idx, victim] = self._clock
        self.misses += 1
        return False

    def simulate(self, addresses: np.ndarray) -> np.ndarray:
        """Replay ``addresses`` (int array); return a boolean hit mask.

        Equivalent to calling :meth:`access` per reference — same hit mask,
        counters and final tag/LRU state — but the set/tag decomposition is
        one vectorised pass and references are replayed grouped by set.
        Accesses to different sets never interact (the LRU clock only orders
        accesses *within* a set), so grouping preserves the exact outcome
        while replacing two NumPy searches per reference with a short
        Python scan of at most ``ways`` entries.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        n = int(addrs.shape[0])
        if n == 0:
            return np.empty(0, dtype=bool)
        lines = addrs >> self._line_shift
        set_idx = (lines & self._set_mask).astype(np.intp)
        tags = lines >> (self.n_sets.bit_length() - 1)
        hit_mask = np.empty(n, dtype=bool)
        clock0 = self._clock

        order = np.argsort(set_idx, kind="stable")
        sorted_sets = set_idx[order]
        starts = np.nonzero(np.diff(sorted_sets))[0] + 1
        groups = np.split(order, starts)
        for grp in groups:
            s = int(set_idx[grp[0]])
            way_tags = self._tags[s]
            way_stamp = self._stamp[s]
            # MRU->LRU order of ways; the victim (``argmin`` of stamps, ties
            # to the lowest index) sits at the end of the list.
            lru = [
                (int(way_tags[w]), w)
                for w in sorted(
                    range(self.ways),
                    key=lambda w: (int(way_stamp[w]), w),
                    reverse=True,
                )
            ]
            last_touch = {}
            for pos in grp:
                tag = int(tags[pos])
                for j, (resident, w) in enumerate(lru):
                    if resident == tag:
                        hit_mask[pos] = True
                        lru.insert(0, lru.pop(j))
                        last_touch[w] = int(pos)
                        break
                else:
                    hit_mask[pos] = False
                    _evicted, w = lru.pop()
                    lru.insert(0, (tag, w))
                    last_touch[w] = int(pos)
            for resident, w in lru:
                way_tags[w] = resident
            for w, pos in last_touch.items():
                way_stamp[w] = clock0 + pos + 1

        self._clock = clock0 + n
        n_hits = int(np.count_nonzero(hit_mask))
        self.hits += n_hits
        self.misses += n - n_hits
        return hit_mask

    @property
    def accesses(self) -> int:
        """Total references simulated since the last reset."""
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Hit fraction since the last reset (0 when nothing simulated)."""
        total = self.accesses
        return self.hits / total if total else 0.0


@dataclass
class CacheStats:
    """Per-level outcome of a multi-level simulation.

    Attributes
    ----------
    level_names:
        Cache level names, nearest first (main memory excluded).
    hits:
        References that hit at each level (first level they hit).
    memory_accesses:
        References that missed every cache level.
    total:
        Total references replayed.
    """

    level_names: list[str]
    hits: list[int]
    memory_accesses: int
    total: int

    def service_fractions(self) -> dict[str, float]:
        """Fraction of references served per level, including ``"MEM"``."""
        if self.total == 0:
            return {name: 0.0 for name in self.level_names} | {"MEM": 0.0}
        out = {
            name: h / self.total for name, h in zip(self.level_names, self.hits)
        }
        out["MEM"] = self.memory_accesses / self.total
        return out


@dataclass
class MultiLevelCache:
    """An inclusive stack of :class:`SetAssociativeCache` levels.

    A reference is tried at each level in order; the first hit serves it and
    lower levels are still filled (inclusive allocation on miss).
    """

    levels: list[SetAssociativeCache]
    names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("MultiLevelCache requires at least one level")
        if not self.names:
            self.names = [f"L{i + 1}" for i in range(len(self.levels))]
        if len(self.names) != len(self.levels):
            raise ValueError("names and levels must have equal length")

    @classmethod
    def of(cls, machine: MachineSpec, ways: int = 4) -> "MultiLevelCache":
        """Configure a simulator matching ``machine``'s cache levels.

        Sizes are rounded down to the nearest simulable geometry (power-of-two
        set count).
        """
        levels: list[SetAssociativeCache] = []
        names: list[str] = []
        for spec in machine.caches:
            line = int(spec.line_bytes)
            target_sets = max(1, int(spec.size_bytes) // (line * ways))
            n_sets = 1 << (target_sets.bit_length() - 1)
            levels.append(
                SetAssociativeCache(n_sets * line * ways, line_bytes=line, ways=ways)
            )
            names.append(spec.name)
        return cls(levels=levels, names=names)

    def reset(self) -> None:
        """Clear all levels."""
        for level in self.levels:
            level.reset()

    def service_fractions_analytic(self, addresses: np.ndarray) -> dict[str, float]:
        """Per-level service fractions from one reuse-distance pass.

        Machine-independent core: the stream is profiled once per distinct
        line size (:func:`repro.memory.reuse.reuse_profile`) and each
        level's hit rate falls out of its ``(n_sets, ways)`` geometry in
        O(1) — no replay, so pricing another machine's hierarchy reuses the
        same profile.  Cumulative hit rates are forced monotone across
        levels (an inclusive stack can only serve more from a farther
        level), then differenced into the same ``{level: fraction, "MEM":
        fraction}`` shape :meth:`simulate` reports.  Agreement with the
        exact simulator is within the conflict model's tolerance
        (DESIGN.md §5c), not exact — keep :meth:`simulate` for golden runs.
        """
        from repro.memory.reuse import reuse_profile

        addrs = np.asarray(addresses, dtype=np.int64)
        if addrs.shape[0] == 0:
            return {name: 0.0 for name in self.names} | {"MEM": 0.0}
        profiles = {
            lb: reuse_profile(addrs, lb)
            for lb in {level.line_bytes for level in self.levels}
        }
        hit_rates = np.array(
            [
                profiles[level.line_bytes].assoc_hit_fraction(level.n_sets, level.ways)
                for level in self.levels
            ]
        )
        cumulative = np.maximum.accumulate(hit_rates)
        served = np.diff(np.concatenate([[0.0], cumulative]))
        out = {name: float(f) for name, f in zip(self.names, served)}
        out["MEM"] = float(1.0 - cumulative[-1])
        return out

    def simulate(self, addresses: np.ndarray) -> CacheStats:
        """Replay ``addresses`` through the stack and tally per-level hits.

        Level-batched: each level replays, in order, exactly the references
        that missed every nearer level.  Because levels share no state (no
        back-invalidation), this is identical to walking the stack per
        reference, but each level gets one array-level
        :meth:`SetAssociativeCache.simulate` call.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        total = int(addrs.shape[0])
        remaining = addrs
        hits = []
        for level in self.levels:
            mask = level.simulate(remaining)
            hits.append(int(np.count_nonzero(mask)))
            remaining = remaining[~mask]
        return CacheStats(
            level_names=list(self.names),
            hits=hits,
            memory_accesses=int(remaining.shape[0]),
            total=total,
        )
