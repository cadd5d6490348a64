"""Tests for repro.utils.validation."""

import pytest

from repro.utils.validation import (
    check_fraction,
    check_in,
    check_positive,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.001)

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", value)


class TestCheckFraction:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_inclusive_accepts_bounds(self, value):
        check_fraction("x", value)

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_fraction("x", value)

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_exclusive_rejects_bounds(self, value):
        with pytest.raises(ValueError):
            check_fraction("x", value, inclusive=False)

    def test_exclusive_accepts_interior(self):
        check_fraction("x", 0.5, inclusive=False)


class TestCheckIn:
    def test_accepts_member(self):
        check_in("mode", "a", ("a", "b"))

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="must be one of"):
            check_in("mode", "c", ("a", "b"))
