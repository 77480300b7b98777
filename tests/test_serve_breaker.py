"""Property-style tests for the circuit breaker state machine.

The two load-bearing invariants, asserted directly and under a seeded
random walk:

* **open ⇒ no backend calls** — while open, ``allow()`` always raises and
  the wrapped callable is never entered;
* **half-open admits exactly the probe quota** — no matter how many
  callers race the window, precisely ``half_open_quota`` calls pass.
"""

import threading

import pytest

from repro.core.errors import CircuitOpenError
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, BreakerBoard, CircuitBreaker
from repro.serve.service import PredictionService
from repro.util.rng import stable_rng


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_breaker(clock, **kw):
    defaults = dict(
        failure_threshold=3,
        window_seconds=10.0,
        cooldown_seconds=5.0,
        half_open_quota=1,
    )
    defaults.update(kw)
    return CircuitBreaker("trace", clock=clock, **defaults)


# ----------------------------------------------------------------------
# transitions
# ----------------------------------------------------------------------
def test_starts_closed_and_allows():
    b = make_breaker(FakeClock())
    assert b.state == CLOSED
    b.allow()


def test_trips_open_at_threshold():
    clock = FakeClock()
    b = make_breaker(clock, failure_threshold=3)
    for _ in range(2):
        b.record_failure()
    assert b.state == CLOSED
    b.record_failure()
    assert b.state == OPEN


def test_open_refuses_with_retry_after():
    clock = FakeClock()
    b = make_breaker(clock, failure_threshold=1, cooldown_seconds=5.0)
    b.record_failure()
    clock.advance(1.0)
    with pytest.raises(CircuitOpenError) as exc_info:
        b.allow()
    assert exc_info.value.stage == "trace"
    assert exc_info.value.retry_after == pytest.approx(4.0)
    assert b.retry_after() == pytest.approx(4.0)


def test_failures_outside_window_age_out():
    clock = FakeClock()
    b = make_breaker(clock, failure_threshold=3, window_seconds=10.0)
    b.record_failure()
    b.record_failure()
    clock.advance(11.0)  # both aged out
    b.record_failure()
    assert b.state == CLOSED


def test_cooldown_elapses_to_half_open_then_success_closes():
    clock = FakeClock()
    b = make_breaker(clock, failure_threshold=1, cooldown_seconds=5.0)
    b.record_failure()
    assert b.state == OPEN
    clock.advance(5.0)
    assert b.state == HALF_OPEN
    b.allow()  # the probe
    b.record_success()
    assert b.state == CLOSED
    assert b.retry_after() == 0.0


def test_half_open_failure_reopens_with_longer_cooldown():
    clock = FakeClock()
    b = make_breaker(clock, failure_threshold=1, cooldown_seconds=5.0)
    b.record_failure()
    clock.advance(5.0)
    b.allow()
    b.record_failure()  # probe failed
    assert b.state == OPEN
    first_retry = b.retry_after()
    assert first_retry > 5.0 * 0.5  # backoff round 1: nominal 10s, jitter >= 0.5x
    # cooldowns keep growing while probes keep failing
    clock.advance(first_retry)
    b.allow()
    b.record_failure()
    assert b.retry_after() > first_retry * 0.5
    # a success anywhere resets the schedule
    clock.advance(b.retry_after())
    b.allow()
    b.record_success()
    assert b.state == CLOSED
    b.record_failure()
    assert b.state == OPEN
    assert b.retry_after() == pytest.approx(5.0)


def test_record_failure_while_open_is_noop():
    clock = FakeClock()
    b = make_breaker(clock, failure_threshold=1, cooldown_seconds=5.0)
    b.record_failure()
    opened_retry = b.retry_after()
    b.record_failure()  # late failure from a pre-open call
    assert b.state == OPEN
    assert b.retry_after() == pytest.approx(opened_retry)


# ----------------------------------------------------------------------
# invariant: open => the backend is never called
# ----------------------------------------------------------------------
def test_open_implies_no_backend_calls():
    clock = FakeClock()
    board = BreakerBoard(clock=clock, failure_threshold=1, cooldown_seconds=100.0)
    service = PredictionService(noise=False, clock=clock, breakers=board)
    calls = []

    def backend(deadline):
        calls.append(1)
        raise RuntimeError("backend down")

    # The service's stage hook is the path requests take.
    with pytest.raises(RuntimeError):
        service.run_stage("trace", None, backend)
    assert board["trace"].state == OPEN
    for _ in range(50):
        clock.advance(1.0)  # stays within cooldown
        with pytest.raises(CircuitOpenError):
            service.run_stage("trace", None, backend)
    assert len(calls) == 1  # only the call that tripped it


# ----------------------------------------------------------------------
# invariant: half-open admits exactly the quota
# ----------------------------------------------------------------------
@pytest.mark.parametrize("quota", [1, 3])
def test_half_open_admits_exactly_quota(quota):
    clock = FakeClock()
    b = make_breaker(clock, failure_threshold=1, half_open_quota=quota)
    b.record_failure()
    clock.advance(5.0)
    assert b.state == HALF_OPEN
    admitted = 0
    for _ in range(quota + 10):
        try:
            b.allow()
            admitted += 1
        except CircuitOpenError:
            pass
    assert admitted == quota


def test_half_open_quota_holds_across_threads():
    clock = FakeClock()
    b = make_breaker(clock, failure_threshold=1, half_open_quota=2)
    b.record_failure()
    clock.advance(5.0)
    admitted = []
    barrier = threading.Barrier(16)

    def worker():
        barrier.wait()
        try:
            b.allow()
            admitted.append(1)
        except CircuitOpenError:
            pass

    threads = [threading.Thread(target=worker) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(admitted) == 2


# ----------------------------------------------------------------------
# property: seeded random walk never violates the invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_random_walk_invariants(seed):
    clock = FakeClock()
    b = make_breaker(
        clock, failure_threshold=2, window_seconds=5.0, cooldown_seconds=3.0
    )
    rng = stable_rng("breaker-walk", seed)
    backend_calls = 0
    for _ in range(400):
        op = rng.integers(0, 4)
        if op == 0:
            clock.advance(float(rng.random()) * 2.0)
        elif op == 1:
            state_before = b.state
            try:
                b.allow()
                admitted = True
            except CircuitOpenError:
                admitted = False
            # open never admits; closed always admits
            if state_before == OPEN and b.state == OPEN:
                assert not admitted
            if state_before == CLOSED:
                assert admitted
            if admitted:
                backend_calls += 1
                if rng.random() < 0.5:
                    b.record_failure()
                else:
                    b.record_success()
        elif op == 2:
            b.record_success()
        else:
            # a late failure report (allowed in any state; open ignores it)
            b.record_failure()
        assert b.state in (CLOSED, OPEN, HALF_OPEN)
        snap = b.snapshot()
        assert snap["recent_failures"] <= b.failure_threshold
        assert snap["retry_after_seconds"] >= 0.0
    assert backend_calls > 0  # the walk exercised admissions


# ----------------------------------------------------------------------
# board
# ----------------------------------------------------------------------
def test_board_snapshot_and_any_open():
    clock = FakeClock()
    board = BreakerBoard(clock=clock, failure_threshold=1)
    assert not board.any_open()
    board["convolve"].record_failure()
    assert board.any_open()
    snap = board.snapshot()
    assert set(snap) == {"probe", "trace", "convolve"}
    assert snap["convolve"]["state"] == OPEN
    assert snap["probe"]["state"] == CLOSED
    assert snap["convolve"]["times_opened"] == 1


def test_breaker_validates_parameters():
    with pytest.raises(ValueError):
        CircuitBreaker("s", failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker("s", window_seconds=0.0)
    with pytest.raises(ValueError):
        CircuitBreaker("s", cooldown_seconds=0.0)
    with pytest.raises(ValueError):
        CircuitBreaker("s", half_open_quota=0)
