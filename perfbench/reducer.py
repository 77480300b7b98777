"""Reduce raw benchmark samples to the reported figures.

Pure functions over plain lists and tuples, so ``test_reduce.py`` can
pin every rule the benchmark applies: percentiles and which of them a
sample supports, the load ladder's pass rule, backlog detection, and
self time from nested spans.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

#: Percentiles the benchmark may report for a latency sample.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

#: A ladder request counts only if it succeeded within this many ms of
#: its due time.
LATENCY_LIMIT_MS = 20.0

#: Share of a step's sent requests that must meet the limit.
LADDER_SHARE = 0.9

#: Generator lateness that grows by more than this across a step (median
#: of the last third minus median of the first third) is a backlog.
LATENESS_GROWTH_MS = 2.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile; ``inf`` entries sort last."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_supported_percentile(n: int, tail: int = TAIL_SAMPLES) -> float | None:
    """The highest of :data:`PERCENTILES` with ``tail`` samples beyond it."""
    best = None
    for p in PERCENTILES:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary.
        if round(n * (100.0 - p) / 100.0, 9) >= tail:
            best = p
    return best


def scaled_median(times, references) -> float:
    """Median of each time over the mean of the two reference timings
    taken just before and just after it.

    ``references[i]`` is ``(before, after)`` for ``times[i]``.  A pass
    and its reference loop slow down together when the machine does, so
    the ratio keeps what the program costs; the median drops the passes
    during which the machine changed speed.
    """
    return median(t / ((a + b) / 2) for t, (a, b) in zip(times, references, strict=True))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with Python's default quantile method."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


# ---------------------------------------------------------------------------
# the open-loop ladder
# ---------------------------------------------------------------------------
def backlog_grows(lateness_ms, growth_ms: float = LATENESS_GROWTH_MS) -> bool:
    """True when send lateness, in send order, grows across the step.

    Lateness is send time minus due time.  It stays near zero while the
    generator and the connections keep up; when requests queue behind
    busy connections it climbs steadily, so the last third's median
    pulls away from the first third's.
    """
    lateness_ms = list(lateness_ms)
    third = len(lateness_ms) // 3
    if third == 0:
        return False
    first = median(lateness_ms[:third])
    last = median(lateness_ms[-third:])
    return last - first > growth_ms


def step_verdict(
    latencies_ms,
    lateness_ms,
    *,
    limit_ms: float = LATENCY_LIMIT_MS,
    share: float = LADDER_SHARE,
) -> dict:
    """Judge one ladder step.

    ``latencies_ms`` holds one entry per request sent, timed from its due
    time; a failed or refused request is ``inf``, so it misses the limit.
    """
    latencies_ms = list(latencies_ms)
    sent = len(latencies_ms)
    ok = sum(1 for value in latencies_ms if value <= limit_ms)
    ok_share = ok / sent if sent else 0.0
    backlog = backlog_grows(lateness_ms)
    return {
        "sent": sent,
        "ok": ok,
        "ok_share": ok_share,
        "backlog": backlog,
        "passed": sent > 0 and ok_share >= share and not backlog,
    }


def ladder_max(steps) -> tuple[float, float]:
    """(rate, achieved) of the highest step passed before the first failure.

    ``steps`` is ``[(offered_rate, passed, achieved_rate), ...]`` in
    ladder order.  ``(0.0, 0.0)`` when the first step fails.
    """
    best = (0.0, 0.0)
    for rate, passed, achieved in steps:
        if not passed:
            break
        best = (rate, achieved)
    return best


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    ``spans`` are ``(id, parent, name, start, end, ...)`` tuples of one
    process.  Children that overlap (concurrent awaits under one parent)
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[3], span[4]))
    return {
        span[0]: (span[4] - span[3]) - union_length(children[span[0]], span[3], span[4])
        for span in spans
    }


def summarise_spans(spans, layer_of) -> tuple[dict, dict]:
    """Per-layer and per-name totals of one process's spans.

    Returns ``(layers, names)``.  ``layers[layer]`` has ``self_s`` (sum of
    self times), ``busy_s`` and ``calls`` (duration and number of the
    layer's outermost spans, i.e. those with no ancestor in the same
    layer) and ``count`` (sum of those spans' counts).  ``names[name]``
    has the same ``busy_s``/``calls``/``count`` keyed by span name, where
    outermost means no ancestor of the same name, plus ``self_s`` over
    every span of that name.
    """
    by_id = {span[0]: span for span in spans}
    own = self_times(spans)
    layers: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "busy_s": 0.0, "calls": 0, "count": 0}
    )
    names: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "busy_s": 0.0, "calls": 0, "count": 0}
    )
    for span in spans:
        sid, parent, name, start, end = span[:5]
        count = span[6] if len(span) > 6 else 1
        layer = layer_of(name)
        layers[layer]["self_s"] += own[sid]
        names[name]["self_s"] += own[sid]
        ancestors = []
        while parent in by_id:
            ancestors.append(by_id[parent][2])
            parent = by_id[parent][1]
        if not any(layer_of(a) == layer for a in ancestors):
            row = layers[layer]
            row["busy_s"] += end - start
            row["calls"] += 1
            row["count"] += count
        if name not in ancestors:
            row = names[name]
            row["busy_s"] += end - start
            row["calls"] += 1
            row["count"] += count
    return dict(layers), dict(names)


def in_windows(spans, windows):
    """Spans that start inside any ``(start, end)`` window."""
    return [s for s in spans if any(a <= s[3] <= b for a, b in windows)]
