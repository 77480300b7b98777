"""Tests for cooperative deadlines and the shared backoff schedule."""

import math

import pytest

from repro.core.errors import DeadlineExceededError
from repro.util.deadline import Deadline
from repro.util.retry import (
    BACKOFF_BASE_SECONDS,
    BACKOFF_CAP_SECONDS,
    backoff_seconds,
)


class FakeClock:
    """Deterministic monotonic clock for deadline tests (no sleeps)."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
def test_deadline_unbounded_by_default():
    d = Deadline()
    assert d.remaining() == math.inf
    assert not d.expired()
    d.checkpoint("anything")  # never raises


def test_deadline_counts_down_on_injected_clock():
    clock = FakeClock()
    d = Deadline(2.0, clock=clock)
    assert d.remaining() == pytest.approx(2.0)
    clock.advance(1.5)
    assert d.elapsed() == pytest.approx(1.5)
    assert d.remaining() == pytest.approx(0.5)
    assert not d.expired()
    clock.advance(0.5)
    assert d.expired()
    assert d.remaining() == 0.0  # clamped, never negative


def test_deadline_checkpoint_raises_with_stage_label():
    clock = FakeClock()
    d = Deadline(1.0, clock=clock, stage="request")
    clock.advance(2.0)
    with pytest.raises(DeadlineExceededError) as exc_info:
        d.checkpoint("trace")
    assert exc_info.value.stage == "trace"
    # Without an explicit label, the deadline's own stage names the error.
    with pytest.raises(DeadlineExceededError) as exc_info:
        d.checkpoint()
    assert exc_info.value.stage == "request"


def test_deadline_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget_seconds"):
        Deadline(-0.1)
    with pytest.raises(ValueError, match="budget_seconds"):
        Deadline(math.nan)


def test_sub_deadline_capped_by_parent_remainder():
    clock = FakeClock()
    parent = Deadline(1.0, clock=clock)
    clock.advance(0.8)
    child = parent.sub(10.0, stage="probe")
    assert child.budget == pytest.approx(0.2)


def test_sub_deadline_can_expire_before_parent():
    clock = FakeClock()
    parent = Deadline(10.0, clock=clock)
    child = parent.sub(0.5, stage="convolve")
    clock.advance(1.0)
    assert child.expired()
    assert not parent.expired()
    with pytest.raises(DeadlineExceededError) as exc_info:
        child.checkpoint()
    assert exc_info.value.stage == "convolve"


def test_sub_deadline_never_outlives_parent():
    clock = FakeClock()
    parent = Deadline(1.0, clock=clock)
    child = parent.sub(1.0)
    grandchild = child.sub(1.0)
    clock.advance(1.0)  # parent spent; children had full nominal budgets
    assert parent.expired()
    assert child.expired()
    assert grandchild.expired()
    assert grandchild.remaining() == 0.0


# ----------------------------------------------------------------------
# backoff (shared by study retries and breaker cooldowns)
# ----------------------------------------------------------------------
def test_backoff_deterministic_per_key():
    assert backoff_seconds(1, "chunk-a") == backoff_seconds(1, "chunk-a")
    assert backoff_seconds(1, "chunk-a") != backoff_seconds(1, "chunk-b")


def test_backoff_grows_then_caps():
    delays = [backoff_seconds(i, "k") for i in range(12)]
    assert all(d > 0 for d in delays)
    # Jittered, so compare against the envelope: 0.5x-1.5x of min(cap, base*2^i).
    for i, d in enumerate(delays):
        nominal = min(BACKOFF_CAP_SECONDS, BACKOFF_BASE_SECONDS * 2**i)
        assert 0.5 * nominal <= d <= 1.5 * nominal
    assert delays[-1] <= 1.5 * BACKOFF_CAP_SECONDS


def test_backoff_custom_base_and_cap():
    d = backoff_seconds(0, "breaker", "trace", base=5.0, cap=160.0)
    assert 2.5 <= d <= 7.5


def test_backoff_rejects_negative_round():
    with pytest.raises(ValueError):
        backoff_seconds(-1, "k")
