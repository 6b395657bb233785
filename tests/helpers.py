"""Assertions shared by the test modules."""

import pytest


def assert_same_text(actual, expected):
    """``actual == expected``, failing with the first differing line rather
    than a full diff, which takes minutes on a trace of thousands of rows."""
    if actual == expected:
        return
    got, want = actual.splitlines(True), expected.splitlines(True)
    i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
             min(len(got), len(want)))
    pytest.fail(f"line {i}: {got[i:i + 1]!r} != {want[i:i + 1]!r} "
                f"({len(got)} vs {len(want)} lines)")
