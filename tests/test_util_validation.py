"""Tests for argument validation helpers."""

import re

import numpy as np
import pytest

from repro.util.validation import check_fraction, check_in, check_int, check_positive


def test_check_int_accepts_integers_and_integer_strings():
    for value in (32, "32", " 32 ", np.int64(32)):
        assert check_int("cpus", value) == 32
        assert type(check_int("cpus", value)) is int


@pytest.mark.parametrize("value", [32.9, 32.0, True, False, "32.0", "x", None, np.float64(32)])
def test_check_int_refuses_what_names_no_integer(value):
    with pytest.raises(ValueError, match=re.escape(f"cpus must be an integer, got {value!r}")):
        check_int("cpus", value)


def test_check_positive_accepts():
    assert check_positive("x", 1.5) == 1.5


def test_check_positive_rejects_zero_by_default():
    with pytest.raises(ValueError, match="x must be > 0"):
        check_positive("x", 0)


def test_check_positive_allow_zero():
    assert check_positive("x", 0, allow_zero=True) == 0.0
    with pytest.raises(ValueError):
        check_positive("x", -1, allow_zero=True)


def test_check_positive_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        check_positive("x", float("nan"))


def test_check_fraction_bounds():
    assert check_fraction("f", 0.0) == 0.0
    assert check_fraction("f", 1.0) == 1.0
    with pytest.raises(ValueError):
        check_fraction("f", 1.0001)
    with pytest.raises(ValueError):
        check_fraction("f", -0.1)


def test_check_in():
    assert check_in("mode", "a", ("a", "b")) == "a"
    with pytest.raises(ValueError, match="mode"):
        check_in("mode", "c", ("a", "b"))
