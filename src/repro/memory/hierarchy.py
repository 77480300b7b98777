"""Analytic cache/memory hierarchy model.

Given a machine's :class:`~repro.machines.spec.MemoryLevelSpec` levels and an
:class:`~repro.memory.patterns.AccessPattern`, the model produces the
*achieved useful bandwidth* — bytes the kernel actually consumes per second.

The model prices each access by the level that serves it:

* residency — data is assumed to occupy the hierarchy greedily, so for a
  working set ``W`` and level sizes ``s1 < s2 < ...`` the fraction of
  references served at level ``i`` is ``min(1, s_i/W) - min(1, s_{i-1}/W)``
  (an inclusive-capacity, fully-warm steady-state approximation);
* unit stride — streaming at the level's bandwidth;
* short stride ``k`` — a full line is transferred for every
  ``min(k·elem, line)`` bytes advanced, wasting the rest;
* random, independent — throughput is latency/MLP bound
  (``mlp · elem / latency``), capped by the level's streaming bandwidth;
* dependent accesses serialise: strided dependence blends a prefetchable
  portion (``bandwidth * dependent_stream_factor``) with full-latency
  chases according to the pattern's ``chase_fraction``; dependent random
  access degenerates to a pure pointer chase (``elem / latency``).

This single surface is interrogated by both the synthetic probes and the
ground-truth application executor (DESIGN.md §5.2): probes see it through
probe-shaped patterns, applications through their own — the gap between the
two is exactly the prediction error the paper studies.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.machines.spec import MachineSpec, MemoryLevelSpec
from repro.memory.patterns import AccessPattern, StrideClass

__all__ = ["MemoryHierarchy"]


class MemoryHierarchy:
    """Behavioural model of one machine's memory hierarchy.

    Parameters
    ----------
    levels:
        Hierarchy levels ordered nearest to farthest; the last must be main
        memory (infinite size).  Usually taken from
        :attr:`repro.machines.spec.MachineSpec.memory_levels`.
    """

    def __init__(self, levels: Sequence[MemoryLevelSpec]):
        if not levels:
            raise ValueError("hierarchy requires at least one level")
        if levels[-1].size_bytes != float("inf"):
            raise ValueError("last level must be main memory (size=inf)")
        self.levels: tuple[MemoryLevelSpec, ...] = tuple(levels)
        self._sizes = np.array([lvl.size_bytes for lvl in levels])
        # Hot-path memoisation: the executor prices every (stride class,
        # dependence) split of a block against the same hierarchy, so
        # residency (keyed by working set) and achieved bandwidth (keyed by
        # the full pattern) recur constantly within a study.
        self._residency_cache: dict[float, tuple[float, ...]] = {}
        self._bandwidth_cache: dict[AccessPattern, float] = {}
        self._level_bw_cache: dict[tuple, tuple[float, ...]] = {}

    @classmethod
    def of(cls, machine: MachineSpec) -> "MemoryHierarchy":
        """Build the hierarchy model for ``machine``."""
        return cls(machine.memory_levels)

    # ------------------------------------------------------------------
    # residency
    # ------------------------------------------------------------------
    def residency_fractions(self, working_set: float) -> np.ndarray:
        """Fraction of references served by each level for ``working_set``.

        Fractions are non-negative and sum to 1; a working set that fits in
        L1 is served entirely by L1, one far larger than the last cache is
        served (almost) entirely by main memory.
        """
        return np.array(self._residency(working_set))

    def _residency(self, working_set: float) -> tuple[float, ...]:
        """Cached, allocation-free core of :meth:`residency_fractions`."""
        cached = self._residency_cache.get(working_set)
        if cached is not None:
            return cached
        if working_set <= 0:
            raise ValueError(f"working_set must be > 0, got {working_set!r}")
        prev = 0.0
        fractions = []
        last = len(self.levels) - 1
        for i, level in enumerate(self.levels):
            cum = 1.0 if i == last else min(1.0, level.size_bytes / working_set)
            fractions.append(max(cum - prev, 0.0))
            prev = cum
        out = tuple(fractions)
        self._residency_cache[working_set] = out
        return out

    # ------------------------------------------------------------------
    # per-level pricing
    # ------------------------------------------------------------------
    @staticmethod
    def level_useful_bandwidth(level: MemoryLevelSpec, pattern: AccessPattern) -> float:
        """Useful bytes/s when every access of ``pattern`` is served by ``level``."""
        elem = pattern.element_bytes
        if pattern.stride is StrideClass.RANDOM:
            if pattern.dependent:
                # Pure pointer chase: one outstanding miss, full latency each.
                return elem / level.latency
            # Independent misses overlap up to the level's MLP; useful
            # throughput is elem bytes per latency per outstanding miss,
            # never exceeding the streaming bandwidth.
            return min(elem * level.mlp / level.latency, level.bandwidth)

        # Strided access: a line is consumed every line/stride_bytes accesses,
        # so the useful fraction of transferred bytes is elem/min(stride,line).
        waste = min(pattern.stride_bytes, level.line_bytes) / elem
        bw = level.bandwidth / waste
        if pattern.dependent:
            # A dependent strided access is a mix of prefetchable dependence
            # (throughput bw * dependent_stream_factor) and full-latency
            # chases; the mix is the pattern's chase_fraction.
            cf = pattern.chase_fraction
            t_per_byte = (1.0 - cf) / (bw * level.dependent_stream_factor)
            t_per_byte += cf * level.latency / elem
            return 1.0 / t_per_byte
        return bw

    def _level_bandwidths(self, pattern: AccessPattern) -> tuple[float, ...]:
        """Per-level useful bandwidths for ``pattern``, cached.

        :meth:`level_useful_bandwidth` does not depend on the working set,
        only on the pattern's shape — so hierarchy-wide level pricing recurs
        across every block sharing a (stride, dependence) split and is worth
        memoising separately from the residency-weighted result.
        """
        key = (
            pattern.stride,
            pattern.stride_elems,
            pattern.element_bytes,
            pattern.dependent,
            pattern.chase_fraction,
        )
        cached = self._level_bw_cache.get(key)
        if cached is None:
            cached = tuple(
                self.level_useful_bandwidth(level, pattern) for level in self.levels
            )
            self._level_bw_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # pattern pricing
    # ------------------------------------------------------------------
    def effective_bandwidth(self, pattern: AccessPattern) -> float:
        """Achieved useful bandwidth (B/s) for ``pattern`` on this hierarchy.

        Averages per-level access costs weighted by residency: the time per
        access is ``sum_i f_i * elem / bw_i`` and the useful bandwidth is its
        reciprocal times ``elem``.
        """
        cached = self._bandwidth_cache.get(pattern)
        if cached is not None:
            return cached
        fractions = self._residency(pattern.working_set)
        level_bws = self._level_bandwidths(pattern)
        time_per_byte = 0.0
        for frac, level_bw in zip(fractions, level_bws):
            if frac <= 0.0:
                continue
            time_per_byte += frac / level_bw
        bw = 1.0 / time_per_byte
        self._bandwidth_cache[pattern] = bw
        return bw

    def effective_bandwidth_sweep(
        self, pattern: AccessPattern, working_sets: np.ndarray
    ) -> np.ndarray:
        """Achieved bandwidth of ``pattern``'s *shape* at many working sets.

        Per-level pricing depends only on the pattern's shape (stride,
        dependence, element size) — never on the working set — so a sweep
        prices the levels once and varies only the residency mix.  Each
        element is bit-identical to :meth:`effective_bandwidth` on the same
        shape with that working set (the per-level accumulation runs in the
        same order, and levels with zero residency contribute an exact
        ``0.0``).  This is the MAPS probe's hot path.
        """
        ws = np.asarray(working_sets, dtype=float)
        if ws.size and float(np.min(ws)) <= 0.0:
            raise ValueError("working sets must be > 0")
        level_bws = self._level_bandwidths(pattern)
        time_per_byte = np.zeros(ws.shape)
        prev = np.zeros(ws.shape)
        last = len(self.levels) - 1
        for i, (level, level_bw) in enumerate(zip(self.levels, level_bws)):
            if i == last:
                cum = np.ones(ws.shape)
            else:
                cum = np.minimum(1.0, level.size_bytes / ws)
            frac = np.maximum(cum - prev, 0.0)
            prev = cum
            time_per_byte = time_per_byte + frac / level_bw
        return 1.0 / time_per_byte

    def residency_matrix(self, working_sets: np.ndarray) -> np.ndarray:
        """Row-per-working-set residency fractions (``(n_ws, n_levels)``).

        Vectorised :meth:`residency_fractions`; rows are bit-identical.
        """
        ws = np.asarray(working_sets, dtype=float)
        if ws.size and float(np.min(ws)) <= 0.0:
            raise ValueError("working sets must be > 0")
        out = np.empty((ws.shape[0], len(self.levels)))
        prev = np.zeros(ws.shape)
        last = len(self.levels) - 1
        for i, level in enumerate(self.levels):
            if i == last:
                cum = np.ones(ws.shape)
            else:
                cum = np.minimum(1.0, level.size_bytes / ws)
            out[:, i] = np.maximum(cum - prev, 0.0)
            prev = cum
        return out

    def level_bandwidth_row(self, pattern: AccessPattern) -> tuple[float, ...]:
        """Per-level useful bandwidths for ``pattern``'s shape (cached)."""
        return self._level_bandwidths(pattern)

    def level_bandwidth_matrix(self, patterns: Sequence[AccessPattern]) -> np.ndarray:
        """``(n_patterns, n_levels)`` useful bandwidths for many shapes at once.

        Row ``i`` is bit-identical to ``level_bandwidth_row(patterns[i])``:
        every branch of :meth:`level_useful_bandwidth` runs the same
        operations in the same order, just elementwise across the stack
        (the executor prices all (stride class, dependence) splits of an
        application's blocks in one call here).
        """
        levels = self.levels
        lat = np.array([lvl.latency for lvl in levels])
        mlp = np.array([float(lvl.mlp) for lvl in levels])
        bw = np.array([lvl.bandwidth for lvl in levels])
        line = np.array([float(lvl.line_bytes) for lvl in levels])
        dsf = np.array([lvl.dependent_stream_factor for lvl in levels])

        elem = np.array([float(p.element_bytes) for p in patterns])[:, None]
        dep = np.array([p.dependent for p in patterns])[:, None]
        cf = np.array([p.chase_fraction for p in patterns])[:, None]
        rand = np.array([p.stride is StrideClass.RANDOM for p in patterns])[:, None]
        # Random patterns have no stride_bytes; feed a placeholder through
        # the strided branch — np.where discards those lanes.
        sb = np.array(
            [
                float(
                    p.element_bytes
                    if p.stride is StrideClass.RANDOM
                    else p.stride_bytes
                )
                for p in patterns
            ]
        )[:, None]

        chase = elem / lat
        overlap = np.minimum(elem * mlp / lat, bw)
        waste = np.minimum(sb, line) / elem
        strided = bw / waste
        t_per_byte = (1.0 - cf) / (strided * dsf)
        t_per_byte = t_per_byte + cf * lat / elem
        dep_strided = 1.0 / t_per_byte
        return np.where(
            rand,
            np.where(dep, chase, overlap),
            np.where(dep, dep_strided, strided),
        )

    def access_time(self, pattern: AccessPattern, total_bytes: float) -> float:
        """Seconds to consume ``total_bytes`` of useful data under ``pattern``."""
        if total_bytes < 0:
            raise ValueError(f"total_bytes must be >= 0, got {total_bytes!r}")
        if total_bytes == 0:
            return 0.0
        return total_bytes / self.effective_bandwidth(pattern)
