"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(func, *args, **kwargs):
    """Call func(*args, **kwargs); return its result and its peak heap bytes.

    The peak is tracemalloc's (numpy reports its buffers to it), counted
    above the traced level just before the call.  Tracing stops afterwards
    unless it was already on.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    try:
        result = func(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak - before


@pytest.fixture
def traced_peak():
    """The tracemalloc peak helper: ``result, peak_bytes = traced_peak(func, *args)``."""
    return _traced_peak
