"""Tests of the benchmark's own reducer and span wrappers.

Run with ``python3 -m pytest perfbench/test_reduce.py``.
"""

import math
import sys
import types

from reducer import (
    backlog_grows,
    highest_supported_percentile,
    ladder_max,
    percentile,
    quartile_spread,
    scaled_median,
    self_times,
    step_verdict,
    summarise_spans,
)
from spans import Recorder, wrap_all


def test_highest_percentile_keeps_ten_samples_beyond_it():
    assert highest_supported_percentile(9) is None
    assert highest_supported_percentile(20) == 50.0
    assert highest_supported_percentile(99) == 50.0
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(200) == 95.0
    assert highest_supported_percentile(1000) == 99.0
    assert highest_supported_percentile(10000) == 99.9


def test_scaled_median_divides_by_the_references_around_each_pass():
    # The second pass ran with the machine twice as slow; the third saw
    # the machine change speed between its references and the pass.
    times = [4.0, 8.0, 9.0]
    references = [(1.0, 1.0), (2.0, 2.0), (1.0, 1.0)]
    assert scaled_median(times, references) == 4.0
    assert scaled_median([3.0], [(1.0, 2.0)]) == 2.0


def test_percentile_is_nearest_rank_and_failures_sort_last():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile([1.0, math.inf, 2.0], 99) == math.inf
    assert math.isnan(percentile([], 50))


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([8, 9, 10, 11, 12]) == (11.5 - 8.5) / 10


def test_ladder_counts_failures_as_misses():
    flat = [1.0] * 30
    # 27 fast answers and 3 failed requests: exactly 90% within the limit.
    passed = step_verdict([2.0] * 27 + [math.inf] * 3, flat)
    assert passed["ok"] == 27 and passed["passed"]
    # One more failure drops the share below 90%.
    failed = step_verdict([2.0] * 26 + [math.inf] * 4, flat)
    assert failed["ok_share"] < 0.9 and not failed["passed"]
    # Slow but successful answers miss the 20 ms limit too.
    slow = step_verdict([2.0] * 20 + [25.0] * 10, flat)
    assert not slow["passed"]
    assert not step_verdict([], [])["passed"]


def test_ladder_max_stops_at_the_first_failing_step():
    steps = [(25, True, 24.9), (50, True, 49.8), (100, False, 60.0), (200, True, 199.0)]
    assert ladder_max(steps) == (50, 49.8)
    assert ladder_max([(25, False, 3.0)]) == (0.0, 0.0)


def test_backlog_is_growing_lateness_not_jitter():
    assert not backlog_grows([1.0] * 30)
    assert not backlog_grows([1.0, 3.0, 0.5] * 10)
    assert backlog_grows([i * 0.5 for i in range(60)])
    assert not backlog_grows([0.0, 100.0])
    growing = step_verdict([1.0] * 60, [i * 0.5 for i in range(60)])
    assert growing["backlog"] and not growing["passed"]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        (0, -1, "root", 0.0, 10.0, None, 1),
        (1, 0, "a", 1.0, 4.0, None, 1),
        (2, 0, "b", 3.0, 6.0, None, 1),  # overlaps a: counted once
        (3, 1, "c", 2.0, 3.0, None, 1),
    ]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_layer_busy_time_counts_outermost_spans_only():
    layers = {"outer": "x", "inner": "x", "leaf": "y"}
    spans = [
        (0, -1, "outer", 0.0, 4.0, None, 1),
        (1, 0, "inner", 1.0, 3.0, None, 5),
        (2, 1, "leaf", 1.5, 2.0, None, 2),
    ]
    by_layer, by_name = summarise_spans(spans, layers.get)
    assert by_layer["x"] == {"self_s": 3.5, "busy_s": 4.0, "calls": 1, "count": 1}
    assert by_layer["y"] == {"self_s": 0.5, "busy_s": 0.5, "calls": 1, "count": 2}
    assert by_name["inner"]["count"] == 5


def test_missing_entry_points_are_reported_absent(tmp_path):
    module = types.ModuleType("perfbench_fake")

    class Thing:
        def run(self, value):
            return value * 2

    def helper():
        return 1

    module.Thing, module.helper = Thing, helper
    sys.modules["perfbench_fake"] = module
    try:
        recorder = Recorder(str(tmp_path))
        absent = wrap_all(recorder, (
            ("x", "perfbench_fake", "Thing.run", None),
            ("x", "perfbench_fake", "helper", None),
            ("x", "perfbench_fake", "Thing.gone", None),
            ("y", "perfbench_fake", "Vanished.run", None),
            ("z", "perfbench_no_such_module", "anything", None),
        ))
        assert absent == [
            "x:perfbench_fake.Thing.gone",
            "y:perfbench_fake.Vanished.run",
            "z:perfbench_no_such_module.anything",
        ]
        assert Thing().run(3) == 6 and module.helper() == 1
        assert [s[2] for s in recorder.spans] == ["Thing.run", "helper"]
    finally:
        del sys.modules["perfbench_fake"]
