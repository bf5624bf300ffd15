"""Unit tests for byte/time unit helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.units import (
    DAY,
    GB,
    HOUR,
    KB,
    MB,
    MINUTE,
    PB,
    TB,
    WEEK,
    format_bytes,
    format_duration,
    parse_bytes,
    parse_duration,
)


class TestParseBytes:
    @pytest.mark.parametrize("text,expected", [
        ("1 KB", KB), ("2mb", 2 * MB), ("4.7 TB", 4.7 * TB), ("600", 600.0),
        ("0.5 gb", 0.5 * GB), ("3 B", 3.0),
    ])
    def test_parses(self, text, expected):
        assert parse_bytes(text) == pytest.approx(expected)

    def test_accepts_numbers(self):
        assert parse_bytes(1024) == 1024.0

    @pytest.mark.parametrize("bad", ["", "abc", "12 XB", "1.2.3 MB"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_bytes(bad)


class TestParseDuration:
    @pytest.mark.parametrize("text,expected", [
        ("30 sec", 30), ("4 min", 4 * MINUTE), ("2 hrs", 2 * HOUR), ("3 days", 3 * DAY),
        ("45", 45.0), ("1.5 h", 1.5 * HOUR),
    ])
    def test_parses(self, text, expected):
        assert parse_duration(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text,expected", [
        ("10 secs", 10), ("1 minute", MINUTE), ("3 hr", 3 * HOUR), ("1 d", DAY),
        ("2 w", 2 * WEEK), ("1 week", WEEK), ("0.5 DAYS", 0.5 * DAY),
    ])
    def test_suffix_aliases(self, text, expected):
        assert parse_duration(text) == pytest.approx(expected)

    def test_accepts_numbers(self):
        assert parse_duration(90) == 90.0

    def test_rejects_unknown_suffix(self):
        with pytest.raises(ValueError):
            parse_duration("3 fortnights")

    @pytest.mark.parametrize("bad", ["", "min", "1.2.3 h", "-5 s"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_duration(bad)


class TestFormatting:
    def test_format_bytes_picks_unit(self):
        assert format_bytes(4.7 * TB) == "4.7 TB"
        assert format_bytes(512) == "512 B"
        assert format_bytes(0) == "0 B"

    def test_format_bytes_negative(self):
        assert format_bytes(-2 * GB) == "-2.0 GB"

    def test_format_bytes_precision(self):
        assert format_bytes(1.5 * PB, precision=3) == "1.500 PB"
        assert format_bytes(1023) == "1023 B"
        assert format_bytes(KB) == "1.0 KB"

    def test_format_duration_picks_unit(self):
        assert format_duration(90) == "1.5 min"
        assert format_duration(2 * DAY) == "2.0 days"
        assert format_duration(30) == "30 sec"

    def test_format_duration_hours_and_precision(self):
        assert format_duration(2.5 * HOUR) == "2.5 hrs"
        assert format_duration(12.25, precision=2) == "12.25 sec"
        assert format_duration(3 * HOUR, precision=2) == "3.00 hrs"

    def test_format_duration_negative(self):
        assert format_duration(-2 * MINUTE) == "-2.0 min"


@given(value=st.floats(min_value=float(KB), max_value=1e18, allow_nan=False))
def test_property_format_parse_round_trip_within_rounding(value):
    """Formatting then parsing a byte count stays within the rounding error.

    Values below 1 KB are excluded: they render as whole bytes, so sub-byte
    precision is intentionally lost there.
    """
    parsed = parse_bytes(format_bytes(value, precision=3))
    assert parsed == pytest.approx(value, rel=5e-3)


@given(value=st.floats(min_value=float(MINUTE), max_value=1e9, allow_nan=False))
def test_property_duration_format_parse_round_trip_within_rounding(value):
    """Durations of a minute or more survive formatting and parsing back."""
    parsed = parse_duration(format_duration(value, precision=3))
    assert parsed == pytest.approx(value, rel=5e-3)
