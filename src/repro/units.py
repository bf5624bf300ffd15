"""Byte and time unit helpers.

The paper reports job dimensions spanning many orders of magnitude (bytes to
exabytes, seconds to days).  These helpers keep unit handling in one place:
constants, parsing of human strings ("4.7 TB", "35 min"), and formatting back
to human strings for tables and reports.
"""

from __future__ import annotations

import re

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "PB",
    "EB",
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "parse_bytes",
    "format_bytes",
    "parse_duration",
    "format_duration",
]

# Byte units.  The paper uses decimal-style prefixes informally; we use binary
# multiples of 1024 which is what Hadoop counters report.  Consistency matters
# more than the 2.4% difference.
KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB
PB = 1024 * TB
EB = 1024 * PB

# Time units in seconds.
SECOND = 1
MINUTE = 60
HOUR = 3600
DAY = 24 * HOUR
WEEK = 7 * DAY

_BYTE_SUFFIXES = {
    "b": 1,
    "kb": KB,
    "mb": MB,
    "gb": GB,
    "tb": TB,
    "pb": PB,
    "eb": EB,
}

_DURATION_SUFFIXES = {
    "s": SECOND,
    "sec": SECOND,
    "secs": SECOND,
    "second": SECOND,
    "seconds": SECOND,
    "m": MINUTE,
    "min": MINUTE,
    "mins": MINUTE,
    "minute": MINUTE,
    "minutes": MINUTE,
    "h": HOUR,
    "hr": HOUR,
    "hrs": HOUR,
    "hour": HOUR,
    "hours": HOUR,
    "d": DAY,
    "day": DAY,
    "days": DAY,
    "w": WEEK,
    "week": WEEK,
    "weeks": WEEK,
}

_NUMBER_UNIT_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([a-zA-Z]*)\s*$")


def parse_bytes(text):
    """Parse a human byte string such as ``"4.7 TB"`` or ``"600"`` into bytes.

    A bare number is interpreted as bytes.  Parsing is case-insensitive.

    Raises:
        ValueError: if the string is not a number followed by a known suffix.
    """
    if isinstance(text, (int, float)):
        return float(text)
    match = _NUMBER_UNIT_RE.match(text)
    if not match:
        raise ValueError("cannot parse byte quantity: %r" % (text,))
    value, suffix = match.groups()
    suffix = suffix.lower() or "b"
    if suffix not in _BYTE_SUFFIXES:
        raise ValueError("unknown byte suffix %r in %r" % (suffix, text))
    return float(value) * _BYTE_SUFFIXES[suffix]


def format_bytes(num_bytes, precision=1):
    """Format a byte count into a short human string (``"4.7 TB"``)."""
    num_bytes = float(num_bytes)
    if num_bytes < 0:
        return "-" + format_bytes(-num_bytes, precision)
    for suffix, unit in (("EB", EB), ("PB", PB), ("TB", TB), ("GB", GB), ("MB", MB), ("KB", KB)):
        if num_bytes >= unit:
            return "%.*f %s" % (precision, num_bytes / unit, suffix)
    return "%.0f B" % num_bytes


def parse_duration(text):
    """Parse a human duration string such as ``"35 min"`` or ``"2 hrs"`` into seconds.

    A bare number is interpreted as seconds.

    Raises:
        ValueError: if the string is not a number followed by a known suffix.
    """
    if isinstance(text, (int, float)):
        return float(text)
    match = _NUMBER_UNIT_RE.match(text)
    if not match:
        raise ValueError("cannot parse duration: %r" % (text,))
    value, suffix = match.groups()
    suffix = suffix.lower() or "s"
    if suffix not in _DURATION_SUFFIXES:
        raise ValueError("unknown duration suffix %r in %r" % (suffix, text))
    return float(value) * _DURATION_SUFFIXES[suffix]


def format_duration(seconds, precision=0):
    """Format a duration in seconds into a short human string (``"2.5 hrs"``)."""
    seconds = float(seconds)
    if seconds < 0:
        return "-" + format_duration(-seconds, precision)
    for suffix, unit in (("days", DAY), ("hrs", HOUR), ("min", MINUTE)):
        if seconds >= unit:
            return "%.*f %s" % (max(precision, 1), seconds / unit, suffix)
    return "%.*f sec" % (precision, seconds)
