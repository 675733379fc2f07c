"""Tests for repro.utils.validation and repro.utils.timer."""

from __future__ import annotations

import pytest

from repro.utils.timer import SimulatedClock
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 2.5) == 2.5

    @pytest.mark.parametrize("bad", [0, -1, float("inf"), float("nan")])
    def test_check_positive_rejects(self, bad):
        with pytest.raises(ValueError):
            check_positive("x", bad)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0.0) == 0.0

    def test_check_non_negative_rejects(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -0.1)
        with pytest.raises(ValueError):
            check_non_negative("x", float("inf"))

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_check_probability_accepts(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_check_probability_rejects(self, value):
        with pytest.raises(ValueError):
            check_probability("p", value)


class TestSimulatedClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimulatedClock()
        clock.advance(2.0)
        clock.advance(3.5)
        assert clock.now == pytest.approx(5.5)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)

    def test_rejected_advance_leaves_the_time(self):
        clock = SimulatedClock()
        clock.advance(2.0)
        with pytest.raises(ValueError):
            clock.advance(-0.5)
        assert clock.now == pytest.approx(2.0)

    def test_zero_advance_keeps_the_time(self):
        clock = SimulatedClock(now=3.0)
        assert clock.advance(0.0) == 3.0
        assert clock.now == 3.0

    def test_advance_returns_new_time(self):
        clock = SimulatedClock()
        assert clock.advance(1.5) == pytest.approx(1.5)
