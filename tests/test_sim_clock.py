"""The Clock seam: VirtualClock semantics and as_clock normalisation.

The simulation harness's determinism rests entirely on these properties
— sleep advances instead of blocking, and the horizon guard turns
would-be hangs into a typed error.
"""

import time

import pytest

from repro.util.clock import (
    SYSTEM_CLOCK,
    Clock,
    SystemClock,
    VirtualClock,
    VirtualTimeLimitError,
    as_clock,
)


class TestVirtualClock:
    def test_starts_at_start(self):
        assert VirtualClock().monotonic() == 0.0
        assert VirtualClock(start=5.5).monotonic() == 5.5

    def test_sleep_advances_without_blocking(self):
        clock = VirtualClock()
        wall = time.perf_counter()
        clock.sleep(3600.0)  # an hour of virtual time...
        wall = time.perf_counter() - wall
        assert clock.monotonic() == 3600.0
        assert wall < 1.0  # ...in well under a wall second

    def test_sleep_accumulates_slept_total(self):
        clock = VirtualClock()
        clock.sleep(1.5)
        clock.sleep(2.5)
        clock.advance(10.0)  # advance is a jump, not a sleep
        assert clock.slept_total == 4.0

    def test_nonpositive_sleep_is_a_noop(self):
        clock = VirtualClock()
        clock.sleep(0.0)
        clock.sleep(-1.0)
        assert clock.monotonic() == 0.0
        assert clock.slept_total == 0.0

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_limit_guard_raises_and_pins_at_limit(self):
        clock = VirtualClock(limit=10.0)
        clock.sleep(9.0)
        with pytest.raises(VirtualTimeLimitError):
            clock.sleep(2.0)
        # Pinned at the horizon: a retry loop that keeps sleeping keeps
        # raising instead of running virtual time away.
        assert clock.monotonic() == 10.0
        with pytest.raises(VirtualTimeLimitError):
            clock.advance(0.5)

    def test_limit_must_exceed_start(self):
        with pytest.raises(ValueError):
            VirtualClock(start=5.0, limit=5.0)


class TestAsClock:
    def test_none_is_the_system_singleton(self):
        assert as_clock(None) is SYSTEM_CLOCK

    def test_clock_passes_through(self):
        clock = VirtualClock()
        assert as_clock(clock) is clock
        system = SystemClock()
        assert as_clock(system) is system

    def test_bare_callable_is_wrapped(self):
        ticks = iter((1.0, 2.0, 3.0))
        wrapped = as_clock(lambda: next(ticks))
        assert isinstance(wrapped, Clock)
        assert wrapped.monotonic() == 1.0
        assert wrapped.monotonic() == 2.0
        # sleep falls back to the real implementation without touching
        # the fake monotonic stream.
        wrapped.sleep(0.0)
        assert wrapped.monotonic() == 3.0

    def test_rejects_non_callables(self):
        with pytest.raises(TypeError):
            as_clock(42)


class TestSystemClock:
    def test_monotonic_moves_forward(self):
        clock = SystemClock()
        a = clock.monotonic()
        b = clock.monotonic()
        assert b >= a

    def test_zero_sleep_returns_immediately(self):
        wall = time.perf_counter()
        SystemClock().sleep(0.0)
        assert time.perf_counter() - wall < 0.5
