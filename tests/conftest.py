"""Fixtures shared by the test modules."""

import pytest

from entconvex import spectra


@pytest.fixture
def empty_state_memo():
    """The per-state memo of the trace-out, empty on entry and on exit.

    A test that counts eigen-solves or products takes it, so that its
    counts do not depend on which states the tests before it met.
    """
    spectra._state_memo.clear()
    yield spectra._state_memo
    spectra._state_memo.clear()
