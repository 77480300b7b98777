"""Tests for the EMPS-style stride detector."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.streams import random_addresses, strided_addresses
from repro.memory.stride import StrideDetector
from repro.util.rng import stable_rng


@pytest.fixture()
def detector():
    return StrideDetector()


def test_unit_stream_detected(detector):
    report = detector.classify(strided_addresses(4096, 1, working_set=1 << 20))
    assert report.histogram.unit > 0.95


def test_short_stride_detected(detector):
    report = detector.classify(strided_addresses(4096, 4, working_set=1 << 20))
    assert report.histogram.short > 0.95
    assert report.histogram.short_stride_elems == 4


def test_negative_stride_counts_as_unit(detector):
    addrs = strided_addresses(1000, 1, working_set=1 << 16)[::-1].copy()
    report = detector.classify(addrs)
    assert report.histogram.unit > 0.95


def test_random_stream_detected(detector):
    report = detector.classify(random_addresses(4096, 1 << 24, stable_rng("s")))
    assert report.histogram.random > 0.9


def test_stride_beyond_short_max_is_random(detector):
    # stride 16 elements > SHORT_STRIDE_MAX=8 -> random bin
    report = detector.classify(strided_addresses(1024, 16, working_set=1 << 22))
    assert report.histogram.random > 0.95


def test_single_reference_stream(detector):
    report = detector.classify(np.array([4096]))
    assert report.references == 1
    assert report.histogram.unit == 1.0


def test_empty_stream_rejected(detector):
    with pytest.raises(ValueError):
        detector.classify(np.array([], dtype=np.int64))


def test_detector_parameter_validation():
    with pytest.raises(ValueError):
        StrideDetector(element_bytes=0)
    with pytest.raises(ValueError):
        StrideDetector(short_max=1)


def test_mixed_stream_fractions(detector):
    unit = strided_addresses(3000, 1, working_set=1 << 20)
    # contiguous concatenation: one transition reference only
    rand = random_addresses(1000, 1 << 24, stable_rng("m"), base=1 << 30)
    report = detector.classify(np.concatenate([unit, rand]))
    assert 0.6 < report.histogram.unit < 0.85
    assert report.histogram.random > 0.15


@settings(max_examples=30, deadline=None)
@given(stride=st.integers(min_value=2, max_value=8))
def test_every_short_stride_recovered(stride):
    detector = StrideDetector()
    report = detector.classify(strided_addresses(512, stride, working_set=1 << 20))
    assert report.histogram.short > 0.9
    assert report.histogram.short_stride_elems == stride


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=2000))
def test_fractions_always_normalised(n):
    detector = StrideDetector()
    report = detector.classify(random_addresses(n, 1 << 22, stable_rng("h", n)))
    h = report.histogram
    assert h.unit + h.short + h.random == pytest.approx(1.0)
