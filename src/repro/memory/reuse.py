"""Machine-independent reuse-distance (stack-distance) cache engine.

An LRU reuse-distance profile is a property of an address stream *alone*:
for each reference, the stack distance is the number of distinct cache
lines touched since the previous reference to the same line (infinite for
first touches).  Mattson's classic result makes the profile universal —
a fully-associative LRU cache of ``C`` lines hits exactly the references
with stack distance ``< C`` — so one pass over a stream prices caches of
*every* capacity in O(levels), where the set-associative simulator in
:mod:`repro.memory.cache` must replay the whole stream once per geometry.

The histogram is computed without any per-reference Python loop.  With
``p[i]`` the previous occurrence of reference ``i``'s line and ``nxt[j]``
the next occurrence of ``j``'s line, the stack distance is the count of
positions ``p[i] < j < i`` whose line is not referenced again before ``i``
(``nxt[j] > i`` — each distinct line in the window has exactly one such
*last* occurrence).  Those range-count-greater queries are answered for all
references simultaneously by a wavelet matrix over ``nxt``: construction is
one stable partition per bit level and every query descends the same
``O(log n)`` levels as vectorised gathers (NumPy tree-counting; the only
Python loop is over the ~log2(n) bit levels).

Set associativity is corrected analytically: a reference survives a
``W``-way set iff fewer than ``W`` of its ``d`` intervening distinct lines
share its set.  They are drawn from the stream's own footprint of ``F``
lines, ``F_s`` of them in the reference's set, so the count is
Hypergeometric(F - 1, F_s - 1, d) and a set whose footprint fits its ways
never conflicts.  ``n_sets == 1`` degenerates to the exact fully-associative
law.  DESIGN.md §5c bounds the error against exact simulation; the property
tests in ``tests/test_memory_reuse.py`` pin it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ReuseProfile", "reuse_distances", "reuse_profile"]


def _occurrence_links(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Previous/next occurrence index of each position's line.

    ``prev[i] == -1`` marks a first touch; ``nxt[j] == n`` marks a last one.
    One stable argsort groups equal lines with positions ascending, so the
    links are simple shifted gathers within each group.
    """
    n = lines.shape[0]
    order = np.argsort(lines, kind="stable")
    grouped = lines[order]
    same = np.empty(n, dtype=bool)
    same[0] = False
    np.not_equal(grouped[1:], grouped[:-1], out=same[1:])
    same = ~same  # same[k]: order[k] shares its line with order[k-1]
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, n, dtype=np.int64)
    prev[order[1:][same[1:]]] = order[:-1][same[1:]]
    nxt[order[:-1][same[1:]]] = order[1:][same[1:]]
    return prev, nxt


def _count_greater(values: np.ndarray, left: np.ndarray, right: np.ndarray,
                   thresholds: np.ndarray) -> np.ndarray:
    """For each query q: ``#{ j in [left[q], right[q]) : values[j] > thresholds[q] }``.

    Wavelet-matrix range counting: values are stably partitioned by one bit
    per level (most significant first); every query interval is remapped
    through the partition with prefix-sum ranks, and all queries advance one
    level per iteration as pure array ops.
    """
    n = int(values.shape[0])
    nbits = max(int(values.max()).bit_length(), 1) if n else 1
    count = np.zeros(left.shape[0], dtype=np.int64)
    l, r = left.astype(np.int64), right.astype(np.int64)
    v = values
    for lev in range(nbits - 1, -1, -1):
        bits = (v >> lev) & 1
        rank0 = np.zeros(v.shape[0] + 1, dtype=np.int64)
        np.cumsum(bits == 0, out=rank0[1:])
        zeros = rank0[-1]
        l0, r0 = rank0[l], rank0[r]
        tbit = (thresholds >> lev) & 1
        go_left = tbit == 0
        # threshold bit 0: every in-range value with bit 1 is greater.
        count += np.where(go_left, (r - l) - (r0 - l0), 0)
        l = np.where(go_left, l0, zeros + (l - l0))
        r = np.where(go_left, r0, zeros + (r - r0))
        v = np.concatenate([v[bits == 0], v[bits == 1]])
    return count


def reuse_distances(addresses: np.ndarray, line_bytes: int = 64) -> np.ndarray:
    """Exact LRU stack distance of every reference, at line granularity.

    The distance is the number of *distinct other* lines referenced since
    the previous access to the same line; first touches get ``-1`` (read:
    infinite — a cold miss at any capacity).  A fully-associative LRU cache
    of ``C`` lines hits reference ``i`` iff ``0 <= d[i] < C``.
    """
    if line_bytes <= 0:
        raise ValueError(f"line_bytes must be > 0, got {line_bytes}")
    addrs = np.asarray(addresses, dtype=np.int64)
    n = int(addrs.shape[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    lines = addrs // line_bytes
    prev, nxt = _occurrence_links(lines)
    out = np.full(n, -1, dtype=np.int64)
    (warm,) = np.nonzero(prev >= 0)
    if warm.size:
        out[warm] = _count_greater(nxt, prev[warm] + 1, warm, warm)
    return out


@dataclass(frozen=True)
class ReuseProfile:
    """Stack-distance histogram of one address stream.

    Attributes
    ----------
    distances:
        Sorted distinct finite stack distances observed.
    counts:
        References at each distance (aligned with ``distances``).
    cold:
        First-touch references (infinite distance; miss at any capacity).
    total:
        Total references profiled.
    line_bytes:
        Line granularity the profile was taken at.
    footprint, reuses:
        Sorted distinct lines touched, and warm references to each.
    """

    distances: np.ndarray
    counts: np.ndarray
    cold: int
    total: int
    line_bytes: int
    footprint: np.ndarray
    reuses: np.ndarray

    def hits(self, capacity_lines: int) -> int:
        """Exact hit count in a fully-associative LRU cache of ``capacity_lines``."""
        if capacity_lines <= 0:
            return 0
        idx = int(np.searchsorted(self.distances, capacity_lines, side="left"))
        return int(np.sum(self.counts[:idx]))

    def hit_fraction(self, capacity_lines: int) -> float:
        """Fully-associative LRU hit rate at ``capacity_lines`` lines."""
        return self.hits(capacity_lines) / self.total if self.total else 0.0

    def assoc_hit_fraction(self, n_sets: int, ways: int) -> float:
        """Expected hit rate of an ``n_sets`` x ``ways`` set-associative LRU cache.

        Exact (Mattson) for ``n_sets == 1``; otherwise the conflict model: a
        reference with ``d`` intervening distinct lines hits iff fewer than
        ``ways`` of them share its set — a Hypergeometric(F - 1, K, d) draw
        from the other footprint lines, ``K`` of them in its set, with ``K``
        weighted by each set's warm references.
        """
        if n_sets <= 0 or ways <= 0:
            raise ValueError(f"need positive geometry, got {n_sets} sets x {ways} ways")
        if self.counts.shape[0] == 0:
            return 0.0
        if n_sets == 1:
            return self.hit_fraction(ways)
        sets = self.footprint % n_sets
        others = np.bincount(sets, minlength=n_sets)[sets] - 1  # K per line
        k_values, which = np.unique(others, return_inverse=True)
        weight = np.bincount(which, weights=self.reuses) / np.sum(self.counts)
        n_others = self.footprint.shape[0] - 1
        cdf = _hypergeom_cdf(ways - 1, n_others, k_values[:, None], self.distances)
        return float(weight @ cdf @ self.counts) / self.total

    def hit_fractions(self, capacities_lines: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`hit_fraction` over an array of capacities."""
        caps = np.asarray(capacities_lines)
        if self.total == 0:
            return np.zeros(caps.shape)
        cum = np.concatenate([[0], np.cumsum(self.counts)])
        idx = np.searchsorted(self.distances, caps, side="left")
        return cum[idx] / self.total


def _hypergeom_cdf(k_max: int, n: int, big_k: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``P(X <= k_max)``, X ~ Hypergeometric(n, big_k, d), broadcast over arrays.

    Sums the pmf ``C(K, k) C(n - K, d - k) / C(n, d)`` in log space;
    impossible terms (``k > K``, ``k > d``, ``d - k > n - K``) add zero.
    """
    from scipy.special import gammaln

    def log_choose(a, b):
        return gammaln(a + 1.0) - gammaln(b + 1.0) - gammaln(a - b + 1.0)

    big_k, d = np.broadcast_arrays(big_k.astype(float), d.astype(float))
    cdf = np.zeros(big_k.shape)
    for k in range(k_max + 1):
        rest = np.clip(d - k, 0.0, n - big_k)
        log_pmf = log_choose(big_k, np.minimum(k, big_k)) + log_choose(n - big_k, rest)
        possible = (k <= big_k) & (k <= d) & (d - k <= n - big_k)
        cdf += np.where(possible, np.exp(log_pmf - log_choose(n, d)), 0.0)
    return np.clip(cdf, 0.0, 1.0)


def reuse_profile(addresses: np.ndarray, line_bytes: int = 64) -> ReuseProfile:
    """Profile one address stream: one vectorised pass, usable for any cache."""
    d = reuse_distances(addresses, line_bytes)
    finite = d[d >= 0]
    distances, counts = np.unique(finite, return_counts=True)
    lines = np.asarray(addresses, dtype=np.int64) // line_bytes
    footprint, touches = np.unique(lines, return_counts=True)
    return ReuseProfile(
        distances=distances,
        counts=counts,
        cold=int(d.shape[0] - finite.shape[0]),
        total=int(d.shape[0]),
        line_bytes=int(line_bytes),
        footprint=footprint,
        reuses=touches - 1,
    )
