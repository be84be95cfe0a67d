"""Suite-wide fixtures."""

import sys

import pytest


@pytest.fixture(autouse=True)
def restore_int_max_str_digits():
    """Keep Python's int/str digit limit per test: ``cli.main`` lifts it for
    the whole process, which would otherwise leak into later tests."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)
